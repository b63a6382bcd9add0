// Package gossip implements the bottom-layer background detection sweep of
// the two-layer framework (§4.3): a lightweight probabilistic broadcast
// (lpbcast-style [6]) of version-vector digests across *all* nodes,
// TTL-bounded to cap detection delay (§4.4.2: "we use TTL to control the
// traversal of the bottom-layer detection messages, thus bound the
// delay"). A digest carries the counts of the origin's vector; the origin
// keeps the vector itself for a few rounds. When a bottom-layer node finds
// its replica in conflict with a digest, it reports back to the origin
// what it has above those counts, and the origin scores its own vector
// against that (detect.HandleGossipReport), so IDEA can compare the
// bottom-layer verdict with the earlier top-layer one and roll back if
// they disagree. Gossip itself scores nothing.
package gossip

import (
	"maps"
	"slices"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Config parameterizes the agent.
type Config struct {
	// Interval between gossip rounds; zero means 10 s.
	Interval time.Duration
	// Fanout peers contacted per round; zero means 2.
	Fanout int
	// TTL is the hop bound per digest; zero means 3. Larger TTL covers
	// more of the bottom layer per round at higher cost — the
	// accuracy/responsiveness trade-off the paper calls out.
	TTL int
}

// seenRounds is how many of the agent's own rounds a digest dedup entry,
// and an advertised vector, is retained for. Relays and the reports they
// trigger arrive within TTL hops of the origin's round, so a few rounds
// suffice; eviction keeps both bounded on long-running nodes.
const seenRounds = 4

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 10 * time.Second
	}
	if c.Fanout == 0 {
		c.Fanout = 2
	}
	if c.TTL == 0 {
		c.TTL = 3
	}
	return c
}

// State is the read-only view of the local replicas the agent gossips
// about; the owning node implements it.
type State interface {
	// LocalVector returns the replica's vector for file, or nil when
	// the node holds no replica. The agent reads it in place, in the
	// file's serialization domain, and never ships, keeps or modifies it
	// (store.Replica.LiveVector); digests and reports carry copies.
	LocalVector(file id.FileID) *vv.Vector
	// ActiveFiles lists files worth gossiping about.
	ActiveFiles() []id.FileID
}

// StableState is optionally implemented by a State whose replicas can
// roll back (checkpoints): StableVector returns the vector whose counts
// the file's replica can never roll back below, or nil when the node
// holds no replica. The agent reads it in place, like LocalVector.
// Digests then advertise these counts as the compaction signal instead
// of the raw vector counts.
type StableState interface {
	StableVector(file id.FileID) *vv.Vector
}

// ReportSink receives conflict reports that arrived at this node (it was
// the digest origin), each with the vector the digest advertised: the
// report's VV holds only what the reporter has above its counts. The IDEA
// protocol scores the pair for the §4.4.2 discrepancy check.
type ReportSink func(e env.Env, rep wire.GossipReport, advertised *vv.Vector)

// FrontierFunc receives a newly learned stability frontier for a file:
// per-writer update counts known to be held by every bottom-layer peer.
// The store uses it to compact its logs (everything below the frontier is
// replicated everywhere, so nobody will ever ask for it again). stable is
// the agent's own map, refilled when the file's frontier next moves: a
// callback that holds on to it past the call keeps a copy.
type FrontierFunc func(e env.Env, file id.FileID, stable map[id.NodeID]int)

const timerRound = "gossip.round"

// TimerShard maps a gossip timer to the shard label its agent was tagged
// with; ok is false for keys the agent does not own. Sharded handlers use
// it to implement env.Sharded.ShardOfTimer.
func TimerShard(key string, data any) (int, bool) {
	if key != timerRound {
		return 0, false
	}
	if s, ok := data.(int); ok {
		return s, true
	}
	return 0, true // untagged legacy payload: shard 0
}

// originView is the most recent per-writer count information heard from
// one digest origin, tagged with the local round it arrived in so stale
// origins can be expired.
type originView struct {
	counts map[id.NodeID]int
	round  int
	// own holds the counts of a digest that advertised no rollback floor,
	// refilled by the origin's next such digest; counts then points to it.
	own map[id.NodeID]int
}

// frontierStaleRounds expires origin count information not refreshed for
// this many local rounds; an expired origin suspends compaction (the
// conservative direction) rather than holding the frontier down forever.
const frontierStaleRounds = 20

// Agent is the per-node gossip participant.
type Agent struct {
	cfg   Config
	self  id.NodeID
	peers []id.NodeID // static bottom layer (used when peerSource is nil)
	// peerSource, when set, supplies the bottom layer live at every use —
	// the dynamic-membership wiring: dead nodes drop out of the fan-out
	// (and out of frontier coverage) the moment the view evicts them, and
	// joiners enter it without any per-shard re-plumbing.
	peerSource func() []id.NodeID
	state      State
	sink       ReportSink

	// tr/traceOf attach the causal tracing layer: traceOf supplies the
	// file's most recent sampled write context so origin digests are
	// tagged with it (see wire.GossipDigest.TC).
	tr      *tracing.Tracer
	traceOf func(file id.FileID) tracing.Context

	shard int // serialization-domain label carried in round-timer data
	round int
	seen  map[digestKey]struct{} // digest dedup keys of the kept rounds
	// rounds holds the kept rounds by round number mod seenRounds+1: a new
	// round evicts exactly the slot it reuses, never sweeping the rest.
	rounds [seenRounds + 1]roundSlot
	// perm is emit's and batch's permutation buffer.
	perm []int

	// outBatch accumulates one round's origin digests per destination
	// peer (reused across rounds; flushed in deterministic peer order).
	outBatch map[id.NodeID][]wire.GossipDigest

	// heard collects, per file, the latest per-writer counts each origin
	// advertised — the raw material of the stability frontier.
	heard map[id.FileID]map[id.NodeID]*originView
	// lastFrontier remembers the frontier last handed to the callback so
	// an unchanged frontier does not re-trigger compaction every round.
	lastFrontier map[id.FileID]map[id.NodeID]int
	onFrontier   FrontierFunc
	// floors holds, per file, the rollback-floor map this node's digests
	// last shipped; see floorOf.
	floors map[id.FileID]map[id.NodeID]int
	// frontier is learnFrontiers' per-file scratch map.
	frontier map[id.NodeID]int

	// statistics
	ConflictsFound int // conflicts this node detected against digests
	ReportsHeard   int // reports received as origin

	met gossipMetrics
}

// gossipMetrics are the telemetry handles for the gossip fan-out;
// zero-value (nil) handles are no-ops.
type gossipMetrics struct {
	rounds    *telemetry.Counter // sweep rounds started
	emitted   *telemetry.Counter // digests sent (origin + forwards)
	forwarded *telemetry.Counter // TTL-decremented relays
	conflicts *telemetry.Counter // conflicts found against digests
	reports   *telemetry.Counter // reports received as origin
	seenSize  *telemetry.Gauge   // dedup map occupancy after eviction
	frontiers *telemetry.Counter // stability frontiers learned
	received  *telemetry.Counter // digests received (pre-dedup)
}

// AttachMetrics wires the agent to a registry; call before Start.
func (a *Agent) AttachMetrics(reg *telemetry.Registry) {
	a.met = gossipMetrics{
		rounds:    reg.Counter("gossip.rounds_total"),
		emitted:   reg.Counter("gossip.digests_sent_total"),
		forwarded: reg.Counter("gossip.digests_forwarded_total"),
		conflicts: reg.Counter("gossip.conflicts_found_total"),
		reports:   reg.Counter("gossip.reports_heard_total"),
		seenSize:  reg.Gauge("gossip.seen_entries"),
		frontiers: reg.Counter("gossip.frontiers_learned_total"),
		received:  reg.Counter("gossip.digests_received_total"),
	}
}

// New creates a gossip agent. peers must exclude self.
func New(cfg Config, self id.NodeID, peers []id.NodeID, state State, sink ReportSink) *Agent {
	return &Agent{
		cfg:          cfg.withDefaults(),
		self:         self,
		peers:        append([]id.NodeID(nil), peers...),
		state:        state,
		sink:         sink,
		seen:         make(map[digestKey]struct{}),
		heard:        make(map[id.FileID]map[id.NodeID]*originView),
		lastFrontier: make(map[id.FileID]map[id.NodeID]int),
		floors:       make(map[id.FileID]map[id.NodeID]int),
		frontier:     make(map[id.NodeID]int),
	}
}

// roundSlot is what one kept local round holds: the dedup keys first seen
// in it and the vectors behind this node's own digests of it, by file, for
// scoring the reports they trigger.
type roundSlot struct {
	round      int
	seen       []digestKey
	advertised map[id.FileID]*vv.Vector
	// vecs are the slot's vectors in advertising order; the first used
	// hold this round's, and the next round to reuse the slot refills
	// them in place.
	vecs []*vv.Vector
	used int
}

// keep stores a copy of v as file's advertised vector and returns it.
func (s *roundSlot) keep(file id.FileID, v *vv.Vector) *vv.Vector {
	var dst *vv.Vector
	if s.used < len(s.vecs) {
		dst = s.vecs[s.used]
	}
	adv := v.CloneInto(dst) // O(writers)
	if s.used == len(s.vecs) {
		s.vecs = append(s.vecs, adv)
	}
	s.used++
	if s.advertised == nil {
		s.advertised = make(map[id.FileID]*vv.Vector)
	}
	s.advertised[file] = adv
	return adv
}

// slot returns the slot of round r (which may hold an older round).
func (a *Agent) slot(r int) *roundSlot { return &a.rounds[uint(r)%uint(len(a.rounds))] }

// OnFrontier installs the stability-frontier callback.
func (a *Agent) OnFrontier(f FrontierFunc) { a.onFrontier = f }

// SetTracer attaches the node's causal tracer plus the source of each
// file's most recent sampled write context (both may be nil). Call
// before Start.
func (a *Agent) SetTracer(tr *tracing.Tracer, traceOf func(file id.FileID) tracing.Context) {
	a.tr = tr
	a.traceOf = traceOf
}

// SetPeerSource makes the agent draw its peer set from f at every use
// instead of the static list passed to New. f must be safe to call from
// the agent's serialization domain (a membership View is). Call before
// Start.
func (a *Agent) SetPeerSource(f func() []id.NodeID) { a.peerSource = f }

// peersNow returns the current bottom-layer peers.
func (a *Agent) peersNow() []id.NodeID {
	if a.peerSource != nil {
		return a.peerSource()
	}
	return a.peers
}

// SetShard tags the agent with the serialization-domain label its round
// timers carry (see TimerShard). A sharded owner runs one agent per shard,
// each sweeping only the files of its domain; the default label 0 matches
// the unsharded single-agent layout. Call before Start.
func (a *Agent) SetShard(s int) { a.shard = s }

// Start arms the round timer.
func (a *Agent) Start(e env.Env) {
	// Desynchronize rounds across nodes (and across a node's shards).
	jitter := time.Duration(e.Rand().Int63n(int64(a.cfg.Interval)))
	e.After(a.cfg.Interval+jitter, timerRound, a.shard)
}

// Timer handles gossip timers; it returns false for keys it does not own.
func (a *Agent) Timer(e env.Env, key string, _ any) bool {
	if key != timerRound {
		return false
	}
	a.round++
	a.met.rounds.Inc()
	slot := a.evict()
	for _, f := range a.state.ActiveFiles() {
		if v := a.state.LocalVector(f); v != nil {
			// The digest ships the vector's counts; the origin keeps the
			// vector itself to score reports with.
			adv := slot.keep(f, v)
			d := wire.GossipDigest{
				File:   f,
				Origin: a.self,
				Round:  a.round,
				TTL:    a.cfg.TTL,
				VV:     adv.Counts(),
			}
			if ss, ok := a.state.(StableState); ok {
				if sv := ss.StableVector(f); sv != nil {
					d.Stable = a.floorOf(f, sv)
				}
			}
			if a.traceOf != nil {
				if tc := a.traceOf(f); tc.Sampled() {
					d.TC = a.tr.Event(e, tc, tracing.EvDigestOut, f, id.Nil, int64(a.round))
				}
			}
			a.batch(e, d)
		}
	}
	a.flushBatch(e)
	a.learnFrontiers(e)
	e.After(a.cfg.Interval, timerRound, a.shard)
	return true
}

// evict empties the slot the new round reuses, which holds the round
// seenRounds+1 rounds back: its dedup keys leave seen and its advertised
// vectors are dropped (keep refills them). Any late relay of such a
// digest is deep in TTL decay anyway. It returns the emptied slot, now
// the current round's.
func (a *Agent) evict() *roundSlot {
	s := a.slot(a.round)
	for _, k := range s.seen {
		delete(a.seen, k)
	}
	clear(s.seen)
	s.seen = s.seen[:0]
	clear(s.advertised)
	s.used = 0
	s.round = a.round
	a.met.seenSize.Set(int64(len(a.seen)))
	return s
}

// permute returns the permutation of [0, n) that e.Rand().Perm(n) would,
// drawing exactly the same numbers, in a buffer the agent reuses: the
// result is valid until the next call.
func (a *Agent) permute(e env.Env, n int) []int {
	m := slices.Grow(a.perm[:0], n)[:n]
	r := e.Rand()
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	a.perm = m
	return m
}

// floorOf returns file's rollback floor sv as the counts map its digest
// ships: the map shipped last time when no count moved, else a fresh one.
// A shipped map is never mutated, since receivers keep it (noteCounts).
func (a *Agent) floorOf(file id.FileID, sv *vv.Vector) map[id.NodeID]int {
	if last := a.floors[file]; last != nil && len(last) == sv.Len() {
		same := true
		for w, e := range sv.Entries {
			if c, ok := last[w]; !ok || c != e.Count {
				same = false
				break
			}
		}
		if same {
			return last
		}
	}
	m := countsOf(sv, make(map[id.NodeID]int, sv.Len()))
	a.floors[file] = m
	return m
}

// countsOf fills m with v's per-writer counts and returns it.
func countsOf(v *vv.Vector, m map[id.NodeID]int) map[id.NodeID]int {
	for w, e := range v.Entries {
		m[w] = e.Count
	}
	return m
}

// emit sends the digest to Fanout random peers, never back to the
// digest's origin or to the explicitly excluded nodes (the sender a
// forward came from — echoing a digest straight back wastes the slot).
func (a *Agent) emit(e env.Env, d wire.GossipDigest, exclude ...id.NodeID) {
	peers := a.peersNow()
	if len(peers) == 0 {
		return
	}
	n := a.cfg.Fanout
	if n > len(peers) {
		n = len(peers)
	}
	skip := func(p id.NodeID) bool {
		if p == d.Origin {
			return true
		}
		for _, x := range exclude {
			if p == x {
				return true
			}
		}
		return false
	}
	// Walk a full random permutation, taking the first n eligible peers,
	// so exclusions do not shrink the effective fanout. Every peer is sent
	// the one boxed copy: a sent message is never mutated.
	var msg env.Message = d
	sent := 0
	for _, i := range a.permute(e, len(peers)) {
		if sent >= n {
			break
		}
		if skip(peers[i]) {
			continue
		}
		sent++
		a.met.emitted.Inc()
		e.Send(peers[i], msg)
	}
}

// batch stages one origin digest for the round's per-peer batches, using
// the same permutation-walk fan-out selection as emit: a shard sweeping F
// files costs one wire.DigestBatch envelope per peer per round instead of
// F, and runtimes split batches back into per-file digests on arrival.
func (a *Agent) batch(e env.Env, d wire.GossipDigest) {
	peers := a.peersNow()
	if len(peers) == 0 {
		return
	}
	n := a.cfg.Fanout
	if n > len(peers) {
		n = len(peers)
	}
	if a.outBatch == nil {
		a.outBatch = make(map[id.NodeID][]wire.GossipDigest)
	}
	sent := 0
	for _, i := range a.permute(e, len(peers)) {
		if sent >= n {
			break
		}
		if peers[i] == d.Origin {
			continue
		}
		sent++
		a.outBatch[peers[i]] = append(a.outBatch[peers[i]], d)
	}
}

// flushBatch ships the staged round batches, one frame per peer, in
// deterministic peer order (map iteration order must not leak into the
// emulator's event schedule). A single-digest batch is sent plain — no
// point paying the bundle envelope for one message.
func (a *Agent) flushBatch(e env.Env) {
	if len(a.outBatch) == 0 {
		return
	}
	for _, p := range a.peersNow() {
		ds := a.outBatch[p]
		if len(ds) == 0 {
			continue
		}
		// The emitted counter ticks at send time, not staging time, so a
		// peer evicted from the live view between the two never counts.
		a.met.emitted.Add(int64(len(ds)))
		if len(ds) == 1 {
			e.Send(p, ds[0])
		} else {
			e.Send(p, wire.DigestBatch{Digests: ds})
		}
		delete(a.outBatch, p)
	}
	// Peers that left the view between staging and flush (dynamic
	// membership) keep nothing staged.
	for p := range a.outBatch {
		delete(a.outBatch, p)
	}
}

// digestKey identifies one origin digest for relay dedup.
type digestKey struct {
	file   id.FileID
	origin id.NodeID
	round  int
}

// HandleDigest compares the digest with the local replica, reports a
// conflict to the origin with the local vector above the digest's counts,
// and forwards the digest while TTL remains — excluding the node it came
// from.
func (a *Agent) HandleDigest(e env.Env, from id.NodeID, d wire.GossipDigest) {
	a.met.received.Inc()
	k := digestKey{d.File, d.Origin, d.Round}
	if _, dup := a.seen[k]; dup {
		return
	}
	a.seen[k] = struct{}{}
	s := a.slot(a.round)
	s.seen = append(s.seen, k)

	if d.Origin != a.self && d.VV != nil {
		a.noteCounts(d.File, d.Origin, d)
	}
	tc := a.tr.Event(e, d.TC, tracing.EvDigestRecv, d.File, from, int64(d.TTL))
	if local := a.state.LocalVector(d.File); local != nil && d.Origin != a.self {
		if vv.Compare(local, d.VV) == vv.Concurrent {
			a.ConflictsFound++
			a.met.conflicts.Inc()
			e.Send(d.Origin, wire.GossipReport{
				File:     d.File,
				Origin:   d.Origin,
				Reporter: a.self,
				Round:    d.Round,
				VV:       local.Above(d.VV),
				TC:       a.tr.Event(e, tc, tracing.EvReportOut, d.File, d.Origin, int64(d.Round)),
			})
		}
	}
	if d.TTL > 1 {
		fwd := d
		fwd.TTL--
		a.met.forwarded.Inc()
		a.emit(e, fwd, from)
	}
}

// noteCounts records the per-writer stable counts an origin's digest
// advertised — its rollback floor when present, its raw counts otherwise.
func (a *Agent) noteCounts(file id.FileID, origin id.NodeID, d wire.GossipDigest) {
	byOrigin := a.heard[file]
	if byOrigin == nil {
		byOrigin = make(map[id.NodeID]*originView)
		a.heard[file] = byOrigin
	}
	view := byOrigin[origin]
	if view == nil {
		view = &originView{}
		byOrigin[origin] = view
	}
	view.round = a.round
	if view.counts = d.Stable; view.counts == nil {
		if view.own == nil {
			view.own = make(map[id.NodeID]int, d.VV.Len())
		}
		clear(view.own)
		view.counts = countsOf(d.VV, view.own)
	}
}

// learnFrontiers derives, per file, the stability frontier — the
// per-writer minimum count across the local replica and every peer's
// latest digest — and hands it to the frontier callback. It only fires
// once fresh count information from every peer is on hand; stale origins
// (gone quiet for frontierStaleRounds) are dropped, which conservatively
// suspends compaction instead of freezing the frontier.
//
// Frontier accounting runs whether or not a callback is installed: the
// gossip.frontiers_learned_total counter is the health engine's
// convergence-stall signal, so it must tick on every advance even on
// nodes that never wired log compaction.
func (a *Agent) learnFrontiers(e env.Env) {
	peers := a.peersNow()
	if len(peers) == 0 {
		return
	}
	for file, byOrigin := range a.heard {
		for origin, view := range byOrigin {
			if view.round < a.round-frontierStaleRounds {
				delete(byOrigin, origin)
			}
		}
		local := a.state.LocalVector(file)
		if local == nil {
			continue
		}
		covered := 0
		for _, p := range peers {
			if _, ok := byOrigin[p]; ok {
				covered++
			}
		}
		if covered < len(peers) {
			continue // not yet heard from everyone: no safe frontier
		}
		// Seed with the local rollback floor (falling back to the raw
		// counts), then take the per-writer minimum across every
		// non-expired origin's advertised floor — not just the current
		// peers. Under a dynamic view a falsely-declared-dead node drops
		// out of peersNow, and taking the minimum over current peers
		// alone would let the frontier (and compaction) pass the absent
		// node's floor; if it then refutes and returns, no peer could
		// ship it the pruned prefix. Its last digest lingers in heard
		// for frontierStaleRounds, capping the frontier for that grace
		// window; only an origin silent past the window stops holding
		// compaction back.
		floor := local
		if ss, ok := a.state.(StableState); ok {
			if sv := ss.StableVector(file); sv != nil {
				floor = sv
			}
		}
		stable := a.frontier
		clear(stable)
		countsOf(floor, stable)
		for _, view := range byOrigin {
			for w := range stable {
				if c := view.counts[w]; c < stable[w] {
					stable[w] = c
				}
			}
		}
		// Only surface a frontier that moved: the callback triggers log
		// compaction, which should not churn when nothing advanced.
		if last := a.lastFrontier[file]; last != nil {
			moved := false
			for w, c := range stable {
				if c > last[w] {
					moved = true
					break
				}
			}
			if !moved {
				continue
			}
		}
		last := a.lastFrontier[file]
		if last == nil {
			last = make(map[id.NodeID]int, len(stable))
			a.lastFrontier[file] = last
		}
		clear(last)
		maps.Copy(last, stable)
		a.met.frontiers.Inc()
		if a.onFrontier != nil {
			a.onFrontier(e, file, last)
		}
	}
}

// HandleReport delivers a conflict report, with the vector its digest
// advertised, to the sink (this node was the origin). A report without a
// vector, or for a digest no longer kept (evicted, or sent before a
// restart), cannot be scored and is dropped.
func (a *Agent) HandleReport(e env.Env, rep wire.GossipReport) {
	var adv *vv.Vector
	if s := a.slot(rep.Round); s.round == rep.Round {
		adv = s.advertised[rep.File]
	}
	if adv == nil || rep.VV == nil {
		return
	}
	a.ReportsHeard++
	a.met.reports.Inc()
	if a.sink != nil {
		a.sink(e, rep, adv)
	}
}

// Recv dispatches gossip messages; it returns false for other kinds.
func (a *Agent) Recv(e env.Env, from id.NodeID, msg env.Message) bool {
	switch m := msg.(type) {
	case wire.GossipDigest:
		a.HandleDigest(e, from, m)
	case wire.DigestBatch:
		// Both bundled runtimes split batches before routing (env.Multi),
		// so this only runs under a runtime that delivers the bundle
		// whole — necessarily single-domain, where iterating here is
		// exactly equivalent.
		for _, d := range m.Digests {
			a.HandleDigest(e, from, d)
		}
	case wire.GossipReport:
		a.HandleReport(e, m)
	default:
		return false
	}
	return true
}
