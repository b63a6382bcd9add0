// Package health is the system-plane counterpart of IDEA's data-plane
// detection loop: where the paper's middleware continuously observes
// replica inconsistency and reacts, this engine continuously observes the
// *node itself* — the stability frontier, shard queues, journal fsyncs,
// membership, bootstrap, and staleness bounds — and turns raw telemetry
// into typed raise/clear anomaly transitions with the evidence that
// tripped them.
//
// Design constraints, in order:
//
//   - Deterministic under simnet virtual time. The engine never reads the
//     ambient clock: every entry point takes the caller's env.Now(), the
//     evaluation cadence is an env timer armed by the owning node, and no
//     randomness is drawn — so a seeded cluster produces byte-identical
//     transition sequences run over run, and the detectors themselves can
//     be regression-tested like protocol code.
//   - Near-zero cost when healthy. The per-write path (RecordLevel) is an
//     atomic load when no file is below its bound; everything else runs
//     on the tick cadence (seconds), far off the hot path.
//   - Evidence over verdicts. Every transition carries the metric values
//     that tripped (or cleared) it, so a soak artifact or /health scrape
//     answers "why" without a debugger attached.
package health

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"idea/internal/id"
	"idea/internal/telemetry"
)

// Detector names. One vocabulary across the engine, the /health JSON,
// the idea_health_* gauges, and the README catalog.
const (
	// DetConvergenceStall: the gossip stability frontier has not advanced
	// for ConvergenceStallAfter while writes kept flowing — anti-entropy
	// is partitioned, starved, or wedged. Critical.
	DetConvergenceStall = "convergence_stall"
	// DetQueueSaturation: some shard queue or peer send queue has sat
	// at or above queueSaturationDepth (1024) for queueSaturationTicks
	// (3) consecutive evaluations. Warn (critical at 4x the threshold).
	DetQueueSaturation = "shard_queue_saturation"
	// DetWALFsync: more than 1% of the journal fsyncs in the last window
	// exceeded FsyncSpikeMs (warn), or the journal latched a sticky
	// append/sync error (critical — the log must be treated as torn).
	DetWALFsync = "wal_fsync_spike"
	// DetMembershipFlap: one member accumulated flapSuspects (3) or
	// more suspect transitions inside flapWindow (60 s) — a flapping
	// link or an overloaded peer chewing through suspect/refute cycles.
	// Warn.
	DetMembershipFlap = "membership_flap"
	// DetJoinStall: a snapshot-bootstrap join has been running longer
	// than joinStallAfter (60 s) without completing. Critical.
	DetJoinStall = "join_stall"
	// DetStaleness: some file's detected consistency level has sat below
	// its configured bound for stalenessAfter (30 s) — the application
	// asked for a floor the cluster is not delivering. Warn.
	DetStaleness = "staleness_violation"
)

// Detectors lists every detector in evaluation order.
var Detectors = []string{
	DetConvergenceStall,
	DetQueueSaturation,
	DetWALFsync,
	DetMembershipFlap,
	DetJoinStall,
	DetStaleness,
}

// Severity ranks an anomaly. The zero value means "not raised".
type Severity int

// Severity levels.
const (
	SevNone Severity = iota
	SevWarn
	SevCritical
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevCritical:
		return "critical"
	}
	return "none"
}

// MarshalJSON encodes the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return []byte(`"` + s.String() + `"`), nil }

// UnmarshalJSON decodes a severity name (for idea-top's scrape path).
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"warn"`:
		*s = SevWarn
	case `"critical"`:
		*s = SevCritical
	default:
		*s = SevNone
	}
	return nil
}

// Verdict is the node-level roll-up of the active anomalies.
type Verdict int

// Verdicts, worst-wins: any critical anomaly makes the node critical,
// any warning makes it degraded.
const (
	Healthy Verdict = iota
	Degraded
	Critical
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	}
	return "healthy"
}

// MarshalJSON encodes the verdict as its name.
func (v Verdict) MarshalJSON() ([]byte, error) { return []byte(`"` + v.String() + `"`), nil }

// UnmarshalJSON decodes a verdict name (for idea-top's scrape path).
func (v *Verdict) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"degraded"`:
		*v = Degraded
	case `"critical"`:
		*v = Critical
	default:
		*v = Healthy
	}
	return nil
}

// Event is one raise or clear transition — the engine's typed output.
// At is nanoseconds since the Unix epoch in the node's clock (virtual
// under simnet), Seq the engine-local transition order.
type Event struct {
	Seq      uint64             `json:"seq"`
	At       int64              `json:"at"`
	Detector string             `json:"detector"`
	Raised   bool               `json:"raised"`
	Severity Severity           `json:"severity"`
	Evidence map[string]float64 `json:"evidence,omitempty"`
	Message  string             `json:"message,omitempty"`
}

// String implements fmt.Stringer.
func (ev Event) String() string {
	verb := "clear"
	if ev.Raised {
		verb = "raise"
	}
	return fmt.Sprintf("%s %s (%s): %s", verb, ev.Detector, ev.Severity, ev.Message)
}

// Anomaly is one currently-active detector in the /health payload.
type Anomaly struct {
	Detector string             `json:"detector"`
	Severity Severity           `json:"severity"`
	RaisedAt int64              `json:"raised_at"`
	Evidence map[string]float64 `json:"evidence,omitempty"`
	Message  string             `json:"message,omitempty"`
	Acked    bool               `json:"acked"`
}

// Status is the /health JSON payload: the verdict, every active anomaly
// with its evidence, and the recent transition history.
type Status struct {
	Node     id.NodeID `json:"node"`
	Verdict  Verdict   `json:"verdict"`
	Enabled  bool      `json:"enabled"`
	Ticks    uint64    `json:"ticks"`
	LastTick int64     `json:"last_tick,omitempty"`
	Active   []Anomaly `json:"active,omitempty"`
	Recent   []Event   `json:"recent,omitempty"`
}

// UnackedCritical counts active critical anomalies no operator has
// acknowledged — the quantity soak/CI asserts to be zero.
func (s Status) UnackedCritical() int {
	n := 0
	for _, a := range s.Active {
		if a.Severity == SevCritical && !a.Acked {
			n++
		}
	}
	return n
}

// JoinStatus is the probe's view of the node's snapshot-bootstrap join.
type JoinStatus struct {
	Active  bool
	Done    bool
	Running time.Duration
}

// queueGauges are the queue-depth gauge families a ProbeReader reads.
var queueGauges = []string{"core.shard_queue_depth.", "transport.queue_depth."}

// Probe is everything one evaluation reads: the five registry counters
// the detectors evaluate, the deepest shard or peer send queue, the
// journal's sticky error (empty when healthy), and the join state. The
// owning node assembles it on the tick (a ProbeReader reads the registry
// part) so the engine itself never touches subsystem internals.
type Probe struct {
	GossipRounds     int64 // gossip.rounds_total
	FrontiersLearned int64 // gossip.frontiers_learned_total
	Writes           int64 // core.writes_total
	Applied          int64 // store.updates_applied_total
	WALErrors        int64 // store.wal_errors_total
	// MaxQueueDepth is the deepest core.shard_queue_depth.* or
	// transport.queue_depth.* gauge.
	MaxQueueDepth int64

	WALErr string
	Join   JoinStatus
}

// ProbeReader reads a Probe's registry part through handles it resolves
// once, and again only when the registry has created a counter or gauge
// since (a new peer's transport.queue_depth.<id>, say): a tick loads the
// handles' cells and takes no registry lock. A counter that does not
// exist reads zero and is not created. It is not safe for concurrent use;
// the owning node reads it on its tick.
type ProbeReader struct {
	reg    *telemetry.Registry
	gen    uint64 // reg.Gen() when the handles were resolved
	queues []*telemetry.Gauge

	rounds, frontiers, writes, applied, walErrors *telemetry.Counter
}

// NewProbeReader resolves the probe's handles in reg (nil reads zeros).
func NewProbeReader(reg *telemetry.Registry) *ProbeReader {
	pr := &ProbeReader{reg: reg}
	pr.resolve()
	return pr
}

// resolve looks every handle up again. Gen is read first, so a metric
// created while it runs moves Gen past the value kept and the next Read
// resolves once more.
func (pr *ProbeReader) resolve() {
	pr.gen = pr.reg.Gen()
	pr.rounds = pr.reg.LookupCounter("gossip.rounds_total")
	pr.frontiers = pr.reg.LookupCounter("gossip.frontiers_learned_total")
	pr.writes = pr.reg.LookupCounter("core.writes_total")
	pr.applied = pr.reg.LookupCounter("store.updates_applied_total")
	pr.walErrors = pr.reg.LookupCounter("store.wal_errors_total")
	pr.queues = pr.reg.GaugesMatching(pr.queues[:0], queueGauges...)
}

// Read returns the registry part of a probe; the caller fills in WALErr
// and Join.
func (pr *ProbeReader) Read() Probe {
	if pr.reg.Gen() != pr.gen {
		pr.resolve()
	}
	p := Probe{
		GossipRounds:     pr.rounds.Value(),
		FrontiersLearned: pr.frontiers.Value(),
		Writes:           pr.writes.Value(),
		Applied:          pr.applied.Value(),
		WALErrors:        pr.walErrors.Value(),
	}
	for _, g := range pr.queues {
		p.MaxQueueDepth = max(p.MaxQueueDepth, g.Value())
	}
	return p
}

// Config tunes the engine. The zero value enables every detector with
// the defaults below; Disable turns evaluation off (the flight recorder
// stays on — it is the part that must never be missing after the fact).
type Config struct {
	// Disable turns detector evaluation off entirely.
	Disable bool
	// Interval is the evaluation cadence (default 2s).
	Interval time.Duration
	// History is how many transitions /health retains (default 64).
	History int

	// ConvergenceStallAfter is how long the stability frontier may sit
	// still while writes flow before the stall raises (default 45s).
	ConvergenceStallAfter time.Duration
	// FsyncSpikeMs is the journal fsync latency above which an fsync
	// counts as slow; >1% slow fsyncs in a window raises (default 50ms).
	FsyncSpikeMs float64
}

// Fixed detector bounds.
const (
	// queueSaturationDepth is the queue depth considered saturated: a
	// full shard queue at the transport's default size (critical fires
	// at 4×, a full peer send queue); queueSaturationTicks is how many
	// consecutive evaluations must see it before raising.
	queueSaturationDepth = 1024
	queueSaturationTicks = 3
	// flapWindow/flapSuspects: suspect transitions per member tolerated
	// inside the window before the flap raises.
	flapWindow   = 60 * time.Second
	flapSuspects = 3
	// joinStallAfter bounds snapshot-bootstrap duration.
	joinStallAfter = 60 * time.Second
	// stalenessAfter is how long a file may sit below its consistency
	// bound before the violation raises.
	stalenessAfter = 30 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.History <= 0 {
		c.History = 64
	}
	if c.ConvergenceStallAfter <= 0 {
		c.ConvergenceStallAfter = 45 * time.Second
	}
	if c.FsyncSpikeMs <= 0 {
		c.FsyncSpikeMs = 50
	}
	return c
}

// belowFile tracks one file currently below its consistency bound.
type belowFile struct {
	since        time.Time
	level, bound float64
}

// Engine evaluates the detectors on the owner's tick cadence and owns
// the node's flight recorder. All methods are safe on a nil receiver.
type Engine struct {
	self id.NodeID
	cfg  Config
	rec  *Recorder

	// fsync is the journal latency histogram handle, resolved once so
	// the window arithmetic can count observations above the threshold
	// (a cumulative p99 never decays and could never clear the alarm).
	fsync *telemetry.Histogram

	verdictG *telemetry.Gauge
	activeG  *telemetry.Gauge
	ticksC   *telemetry.Counter
	transC   *telemetry.Counter
	detG     map[string]*telemetry.Gauge

	// belowN gates the RecordLevel fast path: when zero (the healthy
	// steady state) a write's detect verdict costs one atomic load here.
	belowN atomic.Int64

	mu       sync.Mutex
	onDump   func(reason string, dump FlightDump)
	seq      uint64
	ticks    uint64
	lastTick int64
	active   map[string]*anomaly
	recent   []Event

	// convergence_stall state.
	convSeen        bool
	lastFrontiers   int64
	lastAdvance     time.Time
	writesAtAdvance int64

	// shard_queue_saturation state.
	satTicks int

	// wal_fsync_spike window state.
	fsyncSeen                      bool
	lastFsyncCount, lastFsyncAbove int64
	fsyncIdle                      int

	// membership_flap state: suspect transition times per member.
	suspects map[id.NodeID][]time.Time

	// staleness_violation state.
	below map[id.FileID]*belowFile
}

type anomaly struct {
	severity Severity
	raisedAt int64
	evidence map[string]float64
	message  string
	acked    bool
}

// NewEngine builds a node's health engine (and its flight recorder,
// which stays on even when cfg.Disable turns evaluation off). The
// registry may be nil (tests); gauges then degrade to no-ops.
func NewEngine(self id.NodeID, cfg Config, reg *telemetry.Registry) *Engine {
	cfg = cfg.withDefaults()
	en := &Engine{
		self:     self,
		cfg:      cfg,
		rec:      NewRecorder(defaultPerClass),
		fsync:    reg.Histogram("store.wal_fsync_ms"),
		verdictG: reg.Gauge("health.verdict"),
		activeG:  reg.Gauge("health.active_anomalies"),
		ticksC:   reg.Counter("health.ticks_total"),
		transC:   reg.Counter("health.transitions_total"),
		active:   map[string]*anomaly{},
		suspects: map[id.NodeID][]time.Time{},
		below:    map[id.FileID]*belowFile{},
	}
	en.detG = map[string]*telemetry.Gauge{
		DetConvergenceStall: reg.Gauge("health.convergence_stall"),
		DetQueueSaturation:  reg.Gauge("health.shard_queue_saturation"),
		DetWALFsync:         reg.Gauge("health.wal_fsync_spike"),
		DetMembershipFlap:   reg.Gauge("health.membership_flap"),
		DetJoinStall:        reg.Gauge("health.join_stall"),
		DetStaleness:        reg.Gauge("health.staleness_violation"),
	}
	return en
}

// Recorder returns the engine's flight recorder (nil on a nil engine).
func (en *Engine) Recorder() *Recorder {
	if en == nil {
		return nil
	}
	return en.rec
}

// Enabled reports whether detector evaluation is on.
func (en *Engine) Enabled() bool { return en != nil && !en.cfg.Disable }

// Interval returns the evaluation cadence the owner should arm.
func (en *Engine) Interval() time.Duration {
	if en == nil {
		return 0
	}
	return en.cfg.Interval
}

// SetDumpHook installs the sink invoked (outside the engine lock) with a
// flight-recorder dump whenever a tick raises an anomaly — the
// "automatically dumped when a detector raises" half of the recorder.
func (en *Engine) SetDumpHook(f func(reason string, dump FlightDump)) {
	if en == nil {
		return
	}
	en.mu.Lock()
	en.onDump = f
	en.mu.Unlock()
}

// Tick runs one evaluation pass over the probe, returning the raise and
// clear transitions it produced (usually none). The owner calls it on
// the env timer cadence with env.Now(); determinism follows.
func (en *Engine) Tick(now time.Time, p Probe) []Event {
	if en == nil || en.cfg.Disable {
		return nil
	}
	en.mu.Lock()
	en.ticks++
	en.lastTick = now.UnixNano()
	en.ticksC.Inc()
	var evs []Event
	en.checkConvergence(now, p, &evs)
	en.checkQueues(now, p, &evs)
	en.checkWAL(now, p, &evs)
	en.checkFlap(now, &evs)
	en.checkJoin(now, p, &evs)
	en.checkStaleness(now, &evs)
	en.verdictG.Set(int64(en.verdictLocked()))
	en.activeG.Set(int64(len(en.active)))
	dump := en.onDump
	en.mu.Unlock()

	raised := ""
	for _, ev := range evs {
		kind := FKHealthClear
		if ev.Raised {
			kind = FKHealthRaise
			raised = ev.Detector
		}
		en.rec.Record(now, kind, "", id.Nil, int64(ev.Severity), ev.Detector)
	}
	if raised != "" && dump != nil {
		dump(raised, DumpOf(en.self, en.rec))
	}
	return evs
}

// RecordSuspect feeds one membership suspect transition (the flap
// detector's raw material). Called from the member-event path.
func (en *Engine) RecordSuspect(now time.Time, node id.NodeID) {
	if en == nil || en.cfg.Disable {
		return
	}
	en.mu.Lock()
	en.suspects[node] = append(en.suspects[node], now)
	en.mu.Unlock()
}

// RecordLevel feeds one file's detected consistency level against its
// desired bound (bound <= 0 means unbounded). Called per detect verdict
// and per resolution adoption; the healthy path is one atomic load.
func (en *Engine) RecordLevel(now time.Time, file id.FileID, level, bound float64) {
	if en == nil || en.cfg.Disable {
		return
	}
	if bound <= 0 || level >= bound {
		if en.belowN.Load() == 0 {
			return
		}
		en.mu.Lock()
		if _, ok := en.below[file]; ok {
			delete(en.below, file)
			en.belowN.Add(-1)
		}
		en.mu.Unlock()
		return
	}
	en.mu.Lock()
	if bf, ok := en.below[file]; ok {
		bf.level, bf.bound = level, bound
	} else {
		en.below[file] = &belowFile{since: now, level: level, bound: bound}
		en.belowN.Add(1)
	}
	en.mu.Unlock()
}

// Verdict rolls up the active anomalies, worst-wins.
func (en *Engine) Verdict() Verdict {
	if en == nil {
		return Healthy
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.verdictLocked()
}

func (en *Engine) verdictLocked() Verdict {
	v := Healthy
	for _, a := range en.active {
		switch {
		case a.severity >= SevCritical:
			v = Critical
		case a.severity >= SevWarn && v == Healthy:
			v = Degraded
		}
	}
	return v
}

// Ack acknowledges an active anomaly by detector name, reporting whether
// one was active. An acked critical no longer fails the soak sweep.
func (en *Engine) Ack(detector string) bool {
	if en == nil {
		return false
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	a := en.active[detector]
	if a == nil {
		return false
	}
	a.acked = true
	return true
}

// Status exports the /health payload. Active anomalies are sorted by
// detector name and transitions oldest-first, so two nodes in the same
// state serialize identically.
func (en *Engine) Status() Status {
	if en == nil {
		return Status{Verdict: Healthy}
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	st := Status{
		Node:     en.self,
		Verdict:  en.verdictLocked(),
		Enabled:  !en.cfg.Disable,
		Ticks:    en.ticks,
		LastTick: en.lastTick,
	}
	names := make([]string, 0, len(en.active))
	for det := range en.active {
		names = append(names, det)
	}
	sort.Strings(names)
	for _, det := range names {
		a := en.active[det]
		st.Active = append(st.Active, Anomaly{
			Detector: det,
			Severity: a.severity,
			RaisedAt: a.raisedAt,
			Evidence: copyEvidence(a.evidence),
			Message:  a.message,
			Acked:    a.acked,
		})
	}
	st.Recent = append(st.Recent, en.recent...)
	return st
}

func copyEvidence(m map[string]float64) map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// ---- transitions ----

// ev is one evidence entry: a metric's name and the value that tripped
// or cleared a detector.
type ev struct {
	name  string
	value float64
}

// evidenceOf builds an evidence map, nil for none.
func evidenceOf(evidence []ev) map[string]float64 {
	if len(evidence) == 0 {
		return nil
	}
	m := make(map[string]float64, len(evidence))
	for _, e := range evidence {
		m[e.name] = e.value
	}
	return m
}

// raise opens (or escalates) an anomaly. A re-raise at the same severity
// only refreshes the evidence, in the anomaly's own map — no transition
// spam on every tick, and no allocation while it stays raised.
func (en *Engine) raise(now time.Time, det string, sev Severity, msg string, out *[]Event, evidence ...ev) {
	a := en.active[det]
	if a != nil && a.severity == sev {
		clear(a.evidence)
		for _, e := range evidence {
			a.evidence[e.name] = e.value
		}
		a.message = msg
		return
	}
	if a == nil {
		a = &anomaly{raisedAt: now.UnixNano()}
		en.active[det] = a
	}
	// The transition's event keeps its own copy: a refresh must not
	// rewrite the history /health serves.
	a.severity, a.evidence, a.message = sev, evidenceOf(evidence), msg
	en.detG[det].Set(int64(sev))
	en.transition(now, det, true, sev, evidenceOf(evidence), msg, out)
}

// clear closes an anomaly if it is active; otherwise it is a no-op, so
// detectors call it unconditionally on their healthy branch. The evidence
// map is built only for a transition, so a healthy tick allocates
// nothing.
func (en *Engine) clear(now time.Time, det, msg string, out *[]Event, evidence ...ev) {
	if en.active[det] == nil {
		return
	}
	delete(en.active, det)
	en.detG[det].Set(0)
	en.transition(now, det, false, SevNone, evidenceOf(evidence), msg, out)
}

func (en *Engine) transition(now time.Time, det string, raised bool, sev Severity, evidence map[string]float64, msg string, out *[]Event) {
	en.seq++
	ev := Event{
		Seq:      en.seq,
		At:       now.UnixNano(),
		Detector: det,
		Raised:   raised,
		Severity: sev,
		Evidence: evidence,
		Message:  msg,
	}
	if len(en.recent) >= en.cfg.History {
		en.recent = append(en.recent[:0], en.recent[1:]...)
		en.recent[len(en.recent)-1] = ev
	} else {
		en.recent = append(en.recent, ev)
	}
	en.transC.Inc()
	*out = append(*out, ev)
}

// ---- detectors ----

func (en *Engine) checkConvergence(now time.Time, p Probe, out *[]Event) {
	if p.GossipRounds == 0 {
		// Gossip off or not started: no frontier to watch.
		en.convSeen = false
		en.clear(now, DetConvergenceStall, "gossip idle", out)
		return
	}
	frontiers := p.FrontiersLearned
	writes := p.Writes + p.Applied
	if !en.convSeen || frontiers > en.lastFrontiers {
		en.convSeen = true
		en.lastFrontiers = frontiers
		en.lastAdvance = now
		en.writesAtAdvance = writes
		en.clear(now, DetConvergenceStall, "stability frontier advancing", out, ev{"frontiers_learned", float64(frontiers)})
		return
	}
	stalled := now.Sub(en.lastAdvance)
	writesSince := writes - en.writesAtAdvance
	if stalled >= en.cfg.ConvergenceStallAfter && writesSince > 0 {
		en.raise(now, DetConvergenceStall, SevCritical, "stability frontier not advancing while writes flow", out,
			ev{"stalled_seconds", stalled.Seconds()},
			ev{"writes_since_advance", float64(writesSince)},
			ev{"frontiers_learned", float64(frontiers)},
		)
	}
}

func (en *Engine) checkQueues(now time.Time, p Probe, out *[]Event) {
	maxDepth := p.MaxQueueDepth
	if maxDepth < queueSaturationDepth {
		en.satTicks = 0
		// Hysteresis: an active saturation clears only once the deepest
		// queue drains below half the threshold.
		if maxDepth < queueSaturationDepth/2 {
			en.clear(now, DetQueueSaturation, "queues drained", out, ev{"max_queue_depth", float64(maxDepth)})
		}
		return
	}
	en.satTicks++
	if en.satTicks >= queueSaturationTicks {
		sev := SevWarn
		if maxDepth >= 4*queueSaturationDepth {
			sev = SevCritical
		}
		en.raise(now, DetQueueSaturation, sev, "shard or peer queue saturated", out,
			ev{"max_queue_depth", float64(maxDepth)},
			ev{"threshold", float64(queueSaturationDepth)},
			ev{"saturated_ticks", float64(en.satTicks)},
		)
	}
}

func (en *Engine) checkWAL(now time.Time, p Probe, out *[]Event) {
	if p.WALErr != "" {
		en.raise(now, DetWALFsync, SevCritical, "journal failed (log must be treated as torn): "+p.WALErr, out,
			ev{"wal_errors", float64(p.WALErrors)},
		)
		return
	}
	count := en.fsync.Count()
	above := en.fsync.CountAbove(en.cfg.FsyncSpikeMs)
	if !en.fsyncSeen {
		en.fsyncSeen = true
		en.lastFsyncCount, en.lastFsyncAbove = count, above
		return
	}
	window := count - en.lastFsyncCount
	slow := above - en.lastFsyncAbove
	en.lastFsyncCount, en.lastFsyncAbove = count, above
	if window == 0 {
		// An idle journal neither raises nor clears immediately — a
		// spike raised during a burst decays after a few quiet windows
		// instead of flapping against empty ones.
		en.fsyncIdle++
		if en.fsyncIdle >= 3 {
			en.clear(now, DetWALFsync, "journal idle", out)
		}
		return
	}
	en.fsyncIdle = 0
	if slow*100 > window {
		en.raise(now, DetWALFsync, SevWarn, "journal fsync p99 above threshold", out,
			ev{"fsyncs_in_window", float64(window)},
			ev{"slow_fsyncs", float64(slow)},
			ev{"threshold_ms", en.cfg.FsyncSpikeMs},
		)
	} else {
		en.clear(now, DetWALFsync, "fsync latency nominal", out, ev{"fsyncs_in_window", float64(window)})
	}
}

func (en *Engine) checkFlap(now time.Time, out *[]Event) {
	cutoff := now.Add(-flapWindow)
	worstNode, worstCount := id.Nil, 0
	for node, times := range en.suspects {
		keep := times[:0]
		for _, t := range times {
			if t.After(cutoff) {
				keep = append(keep, t)
			}
		}
		if len(keep) == 0 {
			delete(en.suspects, node)
			continue
		}
		en.suspects[node] = keep
		// Worst member wins; lowest ID breaks ties so the evidence is
		// independent of map iteration order.
		if len(keep) > worstCount || (len(keep) == worstCount && node < worstNode) {
			worstNode, worstCount = node, len(keep)
		}
	}
	if worstCount >= flapSuspects {
		en.raise(now, DetMembershipFlap, SevWarn, fmt.Sprintf("member %s flapping: %d suspect cycles in window", worstNode, worstCount), out,
			ev{"suspect_events", float64(worstCount)},
			ev{"node", float64(worstNode)},
			ev{"window_seconds", flapWindow.Seconds()},
		)
	} else {
		en.clear(now, DetMembershipFlap, "membership stable", out)
	}
}

func (en *Engine) checkJoin(now time.Time, p Probe, out *[]Event) {
	if p.Join.Active && !p.Join.Done && p.Join.Running >= joinStallAfter {
		en.raise(now, DetJoinStall, SevCritical, "snapshot-bootstrap join not completing", out,
			ev{"join_running_seconds", p.Join.Running.Seconds()},
			ev{"threshold_seconds", joinStallAfter.Seconds()},
		)
		return
	}
	en.clear(now, DetJoinStall, "join complete", out)
}

func (en *Engine) checkStaleness(now time.Time, out *[]Event) {
	// The worst violation is the oldest; among equally old ones the file
	// that sorts first, so the evidence is independent of map order.
	var worst *belowFile
	var worstFile id.FileID
	violations := 0
	for f, bf := range en.below {
		if now.Sub(bf.since) < stalenessAfter {
			continue
		}
		violations++
		if worst == nil || bf.since.Before(worst.since) || bf.since.Equal(worst.since) && f < worstFile {
			worst, worstFile = bf, f
		}
	}
	if violations == 0 {
		en.clear(now, DetStaleness, "all files within bounds", out)
		return
	}
	en.raise(now, DetStaleness, SevWarn, fmt.Sprintf("file %s below its consistency bound", worstFile), out,
		ev{"files_below_bound", float64(violations)},
		ev{"worst_age_seconds", now.Sub(worst.since).Seconds()},
		ev{"level", worst.level},
		ev{"bound", worst.bound},
	)
}
