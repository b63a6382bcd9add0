package health

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"idea/internal/telemetry"
)

// testClock hands out explicit times: every engine entry point takes the
// caller's now, so tests drive the clock like simnet drives env.Now().
var t0 = time.Unix(1_000_000, 0)

func at(d time.Duration) time.Time { return t0.Add(d) }

// probe reads a Probe, as a node's tick does, from a registry holding the
// given counters and gauges.
func probe(counters map[string]int64, gauges map[string]int64) Probe {
	reg := telemetry.NewRegistry()
	for name, v := range counters {
		reg.Counter(name).Add(v)
	}
	for name, v := range gauges {
		reg.Gauge(name).Set(v)
	}
	return NewProbeReader(reg).Read()
}

func findEvent(evs []Event, det string, raised bool) *Event {
	for i := range evs {
		if evs[i].Detector == det && evs[i].Raised == raised {
			return &evs[i]
		}
	}
	return nil
}

func TestConvergenceStallRaisesAndClears(t *testing.T) {
	en := NewEngine(1, Config{Interval: time.Second, ConvergenceStallAfter: 10 * time.Second}, nil)

	// Gossip not yet running: dormant, nothing raised.
	if evs := en.Tick(at(0), probe(nil, nil)); len(evs) != 0 {
		t.Fatalf("dormant tick produced %v", evs)
	}
	// First sight of gossip establishes the baseline.
	en.Tick(at(1*time.Second), probe(map[string]int64{
		"gossip.rounds_total": 1, "gossip.frontiers_learned_total": 5, "core.writes_total": 10,
	}, nil))
	// Frontier stuck, writes flowing, but not yet past the threshold.
	evs := en.Tick(at(5*time.Second), probe(map[string]int64{
		"gossip.rounds_total": 4, "gossip.frontiers_learned_total": 5, "core.writes_total": 40,
	}, nil))
	if ev := findEvent(evs, DetConvergenceStall, true); ev != nil {
		t.Fatalf("raised before threshold: %v", ev)
	}
	// Past the threshold: raise, with the evidence the issue demands.
	evs = en.Tick(at(12*time.Second), probe(map[string]int64{
		"gossip.rounds_total": 8, "gossip.frontiers_learned_total": 5, "core.writes_total": 90,
	}, nil))
	ev := findEvent(evs, DetConvergenceStall, true)
	if ev == nil {
		t.Fatalf("no raise after %v stall: %v", 11*time.Second, evs)
	}
	if ev.Severity != SevCritical {
		t.Fatalf("severity = %v, want critical", ev.Severity)
	}
	if ev.Evidence["writes_since_advance"] != 80 {
		t.Fatalf("writes_since_advance = %v, want 80", ev.Evidence["writes_since_advance"])
	}
	if ev.Evidence["stalled_seconds"] != 11 {
		t.Fatalf("stalled_seconds = %v, want 11", ev.Evidence["stalled_seconds"])
	}
	if en.Verdict() != Critical {
		t.Fatalf("verdict = %v, want critical", en.Verdict())
	}
	// Frontier advances: clear.
	evs = en.Tick(at(14*time.Second), probe(map[string]int64{
		"gossip.rounds_total": 10, "gossip.frontiers_learned_total": 6, "core.writes_total": 95,
	}, nil))
	if findEvent(evs, DetConvergenceStall, false) == nil {
		t.Fatalf("no clear after frontier advance: %v", evs)
	}
	if en.Verdict() != Healthy {
		t.Fatalf("verdict = %v, want healthy", en.Verdict())
	}
}

func TestConvergenceStallIgnoresIdleNode(t *testing.T) {
	en := NewEngine(1, Config{ConvergenceStallAfter: 10 * time.Second}, nil)
	en.Tick(at(0), probe(map[string]int64{
		"gossip.rounds_total": 1, "gossip.frontiers_learned_total": 5, "core.writes_total": 10,
	}, nil))
	// Frontier stuck — but no writes either: a quiet cluster is healthy.
	evs := en.Tick(at(30*time.Second), probe(map[string]int64{
		"gossip.rounds_total": 30, "gossip.frontiers_learned_total": 5, "core.writes_total": 10,
	}, nil))
	if ev := findEvent(evs, DetConvergenceStall, true); ev != nil {
		t.Fatalf("raised on an idle node: %v", ev)
	}
}

func TestQueueSaturationEscalatesAndClears(t *testing.T) {
	en := NewEngine(1, Config{}, nil)
	deep := func(depth int64) Probe {
		return probe(nil, map[string]int64{"core.shard_queue_depth.0": depth})
	}
	tick := time.Duration(0)
	for i := 1; i < queueSaturationTicks; i++ {
		if evs := en.Tick(at(tick), deep(1500)); findEvent(evs, DetQueueSaturation, true) != nil {
			t.Fatalf("raised after %d saturated ticks (want %d)", i, queueSaturationTicks)
		}
		tick += 2 * time.Second
	}
	evs := en.Tick(at(tick), deep(1500))
	ev := findEvent(evs, DetQueueSaturation, true)
	if ev == nil || ev.Severity != SevWarn {
		t.Fatalf("want warn raise on saturated tick %d, got %v", queueSaturationTicks, evs)
	}
	// 4x the threshold escalates to critical — a new transition.
	evs = en.Tick(at(tick+2*time.Second), deep(5000))
	ev = findEvent(evs, DetQueueSaturation, true)
	if ev == nil || ev.Severity != SevCritical {
		t.Fatalf("want critical escalation at 4x, got %v", evs)
	}
	if ev.Evidence["max_queue_depth"] != 5000 {
		t.Fatalf("max_queue_depth = %v, want 5000", ev.Evidence["max_queue_depth"])
	}
	// Hysteresis: 600 is below the threshold but above half of it.
	if evs := en.Tick(at(tick+4*time.Second), deep(600)); findEvent(evs, DetQueueSaturation, false) != nil {
		t.Fatal("cleared above the hysteresis floor")
	}
	if evs := en.Tick(at(tick+6*time.Second), deep(10)); findEvent(evs, DetQueueSaturation, false) == nil {
		t.Fatal("no clear after queues drained")
	}
}

func TestWALStickyErrorIsCritical(t *testing.T) {
	en := NewEngine(1, Config{}, nil)
	p := probe(map[string]int64{"store.wal_errors_total": 3}, nil)
	p.WALErr = "append f: disk gone"
	evs := en.Tick(at(0), p)
	ev := findEvent(evs, DetWALFsync, true)
	if ev == nil || ev.Severity != SevCritical {
		t.Fatalf("want critical raise on sticky WAL error, got %v", evs)
	}
	if ev.Evidence["wal_errors"] != 3 {
		t.Fatalf("wal_errors = %v, want 3", ev.Evidence["wal_errors"])
	}
}

func TestWALFsyncSpikeWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Same bounds family as the real WAL attaches, registered before the
	// engine resolves the handle.
	h := reg.HistogramWith("store.wal_fsync_ms", []float64{1, 5, 10, 25, 50, 100, 250})
	en := NewEngine(1, Config{FsyncSpikeMs: 50}, reg)

	en.Tick(at(0), probe(nil, nil)) // window baseline
	// 10 fsyncs, 2 slow: 20% > 1% → raise.
	for i := 0; i < 8; i++ {
		h.Observe(0.5)
	}
	h.Observe(200)
	h.Observe(200)
	evs := en.Tick(at(2*time.Second), probe(nil, nil))
	ev := findEvent(evs, DetWALFsync, true)
	if ev == nil || ev.Severity != SevWarn {
		t.Fatalf("want warn raise on slow window, got %v", evs)
	}
	if ev.Evidence["slow_fsyncs"] != 2 || ev.Evidence["fsyncs_in_window"] != 10 {
		t.Fatalf("evidence = %v, want slow=2 window=10", ev.Evidence)
	}
	// A fast window clears it even though the cumulative p99 stays high.
	for i := 0; i < 500; i++ {
		h.Observe(0.5)
	}
	if evs := en.Tick(at(4*time.Second), probe(nil, nil)); findEvent(evs, DetWALFsync, false) == nil {
		t.Fatalf("no clear after fast window: %v", evs)
	}
}

func TestWALFsyncIdleDecay(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.HistogramWith("store.wal_fsync_ms", []float64{1, 5, 10, 25, 50, 100, 250})
	en := NewEngine(1, Config{FsyncSpikeMs: 50}, reg)
	en.Tick(at(0), probe(nil, nil))
	h.Observe(200)
	if evs := en.Tick(at(2*time.Second), probe(nil, nil)); findEvent(evs, DetWALFsync, true) == nil {
		t.Fatal("no raise on all-slow window")
	}
	// Three empty windows decay the alarm instead of flapping.
	en.Tick(at(4*time.Second), probe(nil, nil))
	en.Tick(at(6*time.Second), probe(nil, nil))
	evs := en.Tick(at(8*time.Second), probe(nil, nil))
	if findEvent(evs, DetWALFsync, false) == nil {
		t.Fatalf("no clear after 3 idle windows: %v", evs)
	}
}

func TestMembershipFlapRaisesAndClears(t *testing.T) {
	en := NewEngine(1, Config{}, nil)
	en.RecordSuspect(at(1*time.Second), 7)
	en.RecordSuspect(at(2*time.Second), 7)
	if evs := en.Tick(at(3*time.Second), probe(nil, nil)); findEvent(evs, DetMembershipFlap, true) != nil {
		t.Fatal("raised below flapSuspects")
	}
	en.RecordSuspect(at(4*time.Second), 7)
	evs := en.Tick(at(5*time.Second), probe(nil, nil))
	ev := findEvent(evs, DetMembershipFlap, true)
	if ev == nil || ev.Severity != SevWarn {
		t.Fatalf("want warn raise at 3 suspects, got %v", evs)
	}
	if ev.Evidence["suspect_events"] != 3 || ev.Evidence["node"] != 7 {
		t.Fatalf("evidence = %v, want 3 events on node 7", ev.Evidence)
	}
	// Inside the window the suspicions still count: no clear.
	if evs := en.Tick(at(40*time.Second), probe(nil, nil)); findEvent(evs, DetMembershipFlap, false) != nil {
		t.Fatalf("cleared inside the %v window: %v", flapWindow, evs)
	}
	// The window slides past the suspicions: clear.
	evs = en.Tick(at(4*time.Second+flapWindow+time.Second), probe(nil, nil))
	if findEvent(evs, DetMembershipFlap, false) == nil {
		t.Fatalf("no clear after window passed: %v", evs)
	}
}

func TestJoinStallRaisesAndClears(t *testing.T) {
	en := NewEngine(1, Config{}, nil)
	p := probe(nil, nil)
	p.Join = JoinStatus{Active: true, Running: joinStallAfter - time.Second}
	if evs := en.Tick(at(joinStallAfter-time.Second), p); findEvent(evs, DetJoinStall, true) != nil {
		t.Fatal("raised before joinStallAfter")
	}
	p.Join.Running = joinStallAfter + 5*time.Second
	evs := en.Tick(at(p.Join.Running), p)
	ev := findEvent(evs, DetJoinStall, true)
	if ev == nil || ev.Severity != SevCritical {
		t.Fatalf("want critical raise on stalled join, got %v", evs)
	}
	if ev.Evidence["join_running_seconds"] != 65 {
		t.Fatalf("join_running_seconds = %v, want 65", ev.Evidence["join_running_seconds"])
	}
	p.Join.Done = true
	if evs := en.Tick(at(p.Join.Running+5*time.Second), p); findEvent(evs, DetJoinStall, false) == nil {
		t.Fatal("no clear after join completed")
	}
}

func TestStalenessRaisesAndClears(t *testing.T) {
	en := NewEngine(1, Config{}, nil)
	en.RecordLevel(at(0), "f", 0.5, 0.9)
	if evs := en.Tick(at(stalenessAfter-5*time.Second), probe(nil, nil)); findEvent(evs, DetStaleness, true) != nil {
		t.Fatal("raised before stalenessAfter")
	}
	evs := en.Tick(at(stalenessAfter+2*time.Second), probe(nil, nil))
	ev := findEvent(evs, DetStaleness, true)
	if ev == nil || ev.Severity != SevWarn {
		t.Fatalf("want warn raise on stale file, got %v", evs)
	}
	if ev.Evidence["files_below_bound"] != 1 || ev.Evidence["level"] != 0.5 || ev.Evidence["bound"] != 0.9 {
		t.Fatalf("evidence = %v", ev.Evidence)
	}
	// Resolution brings the file back above its bound: clear.
	en.RecordLevel(at(stalenessAfter+3*time.Second), "f", 1, 0.9)
	if evs := en.Tick(at(stalenessAfter+4*time.Second), probe(nil, nil)); findEvent(evs, DetStaleness, false) == nil {
		t.Fatal("no clear after recovery")
	}
	// Fast path restored: no tracked files, one atomic load per verdict.
	if n := en.belowN.Load(); n != 0 {
		t.Fatalf("belowN = %d after recovery, want 0", n)
	}
}

func TestAckAndUnackedCritical(t *testing.T) {
	en := NewEngine(1, Config{}, nil)
	p := probe(nil, nil)
	p.WALErr = "torn"
	en.Tick(at(0), p)
	if got := en.Status().UnackedCritical(); got != 1 {
		t.Fatalf("UnackedCritical = %d, want 1", got)
	}
	if !en.Ack(DetWALFsync) {
		t.Fatal("Ack(wal_fsync_spike) = false on an active anomaly")
	}
	if got := en.Status().UnackedCritical(); got != 0 {
		t.Fatalf("UnackedCritical after ack = %d, want 0", got)
	}
	if en.Ack(DetJoinStall) {
		t.Fatal("Ack on an inactive detector reported true")
	}
	// The verdict (and the 503) stays critical: ack silences the gate,
	// not the problem.
	if en.Verdict() != Critical {
		t.Fatalf("verdict after ack = %v, want critical", en.Verdict())
	}
}

func TestReRaiseDoesNotSpamTransitions(t *testing.T) {
	en := NewEngine(1, Config{}, nil)
	p := probe(nil, nil)
	p.Join = JoinStatus{Active: true, Running: 2 * time.Hour}
	if evs := en.Tick(at(0), p); findEvent(evs, DetJoinStall, true) == nil {
		t.Fatal("no initial raise")
	}
	for i := 1; i <= 5; i++ {
		if evs := en.Tick(at(time.Duration(i)*time.Second), p); len(evs) != 0 {
			t.Fatalf("tick %d re-emitted transitions: %v", i, evs)
		}
	}
	if got := en.Status(); len(got.Recent) != 1 {
		t.Fatalf("recent = %d transitions, want 1", len(got.Recent))
	}
}

func TestDisabledEngineIsInert(t *testing.T) {
	en := NewEngine(1, Config{Disable: true}, nil)
	p := probe(nil, nil)
	p.WALErr = "torn"
	if evs := en.Tick(at(0), p); evs != nil {
		t.Fatalf("disabled Tick returned %v", evs)
	}
	if en.Enabled() {
		t.Fatal("Enabled() = true with Disable set")
	}
	if en.Verdict() != Healthy {
		t.Fatalf("verdict = %v, want healthy", en.Verdict())
	}
	if en.Recorder() == nil {
		t.Fatal("flight recorder missing on a disabled engine (it is always on)")
	}
}

func TestNilEngineIsSafe(t *testing.T) {
	var en *Engine
	en.Tick(at(0), probe(nil, nil))
	en.RecordSuspect(at(0), 1)
	en.RecordLevel(at(0), "f", 0.1, 0.9)
	if en.Enabled() || en.Verdict() != Healthy || en.Ack("x") {
		t.Fatal("nil engine misbehaved")
	}
	en.Recorder().Record(at(0), FKNodeStart, "", 1, 0, "")
}

func TestDumpHookFiresOnRaise(t *testing.T) {
	en := NewEngine(1, Config{}, nil)
	en.Recorder().Record(at(0), FKNodeStart, "", 1, 4, "")
	var gotReason string
	var gotDump FlightDump
	en.SetDumpHook(func(reason string, d FlightDump) { gotReason, gotDump = reason, d })
	p := probe(nil, nil)
	p.WALErr = "torn"
	en.Tick(at(time.Second), p)
	if gotReason != DetWALFsync {
		t.Fatalf("dump reason = %q, want %q", gotReason, DetWALFsync)
	}
	// The dump includes both the node.start breadcrumb and the raise.
	var start, raise bool
	for _, ev := range gotDump.Events {
		switch ev.Kind {
		case FKNodeStart:
			start = true
		case FKHealthRaise:
			raise = true
		}
	}
	if !start || !raise {
		t.Fatalf("dump missing events: start=%v raise=%v (%d events)", start, raise, len(gotDump.Events))
	}
}

func TestStatusJSONDeterministic(t *testing.T) {
	mk := func() []byte {
		en := NewEngine(3, Config{}, nil)
		p := probe(map[string]int64{"store.wal_errors_total": 1}, nil)
		p.WALErr = "torn"
		p.Join = JoinStatus{Active: true, Running: 2 * time.Hour}
		en.Tick(at(time.Second), p)
		raw, err := json.Marshal(en.Status())
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := mk(), mk()
	if string(a) != string(b) {
		t.Fatalf("same state serialized differently:\n%s\n%s", a, b)
	}
}

// TestProbeReaderCarriesWhatDetectorsRead: a probe read from a live
// registry carries the counters and queue gauges the detectors evaluate,
// and no other gauge, creates no metric, and trips the detectors exactly
// as the values it read.
func TestProbeReaderCarriesWhatDetectorsRead(t *testing.T) {
	reg := telemetry.NewRegistry()
	en := NewEngine(1, Config{}, reg)
	reg.Gauge("transport.queue_depth.n7").Set(2000)
	reg.Gauge("core.shard_queue_depth.1").Set(300)
	reg.Gauge("gossip.seen_entries").Set(9000)
	reg.Counter("store.wal_errors_total").Add(2)
	reg.Counter("gossip.rounds_total").Inc()
	reg.Histogram("detect.roundtrip_seconds").Observe(1)
	before := reg.Snapshot()
	p := NewProbeReader(reg).Read()
	p.WALErr = "torn"
	if p.MaxQueueDepth != 2000 || p.WALErrors != 2 || p.GossipRounds != 1 || p.Writes != 0 {
		t.Fatalf("probe = %+v, want queue 2000, 2 WAL errors, 1 round, no writes", p)
	}
	if after := reg.Snapshot(); len(after.Counters) != len(before.Counters) || len(after.Gauges) != len(before.Gauges) {
		t.Fatalf("reading the probe created metrics: %v -> %v", before.Counters, after.Counters)
	}
	var evs []Event
	for i := 0; i < queueSaturationTicks; i++ {
		evs = append(evs, en.Tick(at(time.Duration(i)*2*time.Second), p)...)
	}
	if ev := findEvent(evs, DetQueueSaturation, true); ev == nil || ev.Evidence["max_queue_depth"] != 2000 {
		t.Fatalf("queue saturation not raised from the probe: %v", evs)
	}
	if ev := findEvent(evs, DetWALFsync, true); ev == nil || ev.Evidence["wal_errors"] != 2 {
		t.Fatalf("WAL error evidence missing from the probe: %v", evs)
	}
}

// TestProbeReaderSeesLaterGauges: a queue gauge registered after the first
// tick (a peer that joined later) is still read, and trips checkQueues.
func TestProbeReaderSeesLaterGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	en := NewEngine(1, Config{}, reg)
	reg.Gauge("transport.queue_depth.n2").Set(10)
	pr := NewProbeReader(reg)
	if evs := en.Tick(at(0), pr.Read()); len(evs) != 0 {
		t.Fatalf("healthy first tick produced %v", evs)
	}
	reg.Gauge("transport.queue_depth.n9").Set(5000)
	var evs []Event
	for i := 1; i <= queueSaturationTicks; i++ {
		evs = append(evs, en.Tick(at(time.Duration(i)*2*time.Second), pr.Read())...)
	}
	ev := findEvent(evs, DetQueueSaturation, true)
	if ev == nil || ev.Evidence["max_queue_depth"] != 5000 || ev.Severity != SevCritical {
		t.Fatalf("a gauge registered after the first tick was not read: %v", evs)
	}
}

// TestHealthyTickAllocatesNothing pins the healthy evaluation path: a
// probe read through resolved handles and a tick that raises and clears
// nothing allocate nothing, whatever the registry holds.
func TestHealthyTickAllocatesNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	en := NewEngine(1, Config{}, reg)
	reg.Counter("gossip.rounds_total").Add(5)
	reg.Counter("gossip.frontiers_learned_total").Add(3)
	reg.Counter("core.writes_total").Add(100)
	for _, q := range []string{"core.shard_queue_depth.0", "transport.queue_depth.n2", "transport.queue_depth.n3"} {
		reg.Gauge(q).Set(7)
	}
	for i := 0; i < 50; i++ {
		reg.Gauge(fmt.Sprintf("other.gauge_%d", i)).Set(int64(i))
	}
	pr := NewProbeReader(reg)
	now := at(0)
	tick := func() {
		now = now.Add(2 * time.Second)
		if evs := en.Tick(now, pr.Read()); len(evs) != 0 {
			t.Fatalf("healthy tick produced %v", evs)
		}
	}
	tick()
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Fatalf("healthy probe read and tick = %v allocs, want 0", allocs)
	}
}

// TestReraiseRefreshesEvidenceNotHistory: while an anomaly stays raised,
// each tick refreshes its evidence in /health's active list without
// allocating, and the raise event in the history keeps the values that
// tripped it.
func TestReraiseRefreshesEvidenceNotHistory(t *testing.T) {
	reg := telemetry.NewRegistry()
	en := NewEngine(1, Config{ConvergenceStallAfter: 10 * time.Second}, reg)
	rounds, writes := reg.Counter("gossip.rounds_total"), reg.Counter("core.writes_total")
	rounds.Inc()
	pr := NewProbeReader(reg)
	en.Tick(at(0), pr.Read())
	writes.Add(10)
	if evs := en.Tick(at(12*time.Second), pr.Read()); findEvent(evs, DetConvergenceStall, true) == nil {
		t.Fatalf("stall not raised: %v", evs)
	}
	writes.Add(5)
	now := at(12 * time.Second)
	if allocs := testing.AllocsPerRun(20, func() {
		now = now.Add(2 * time.Second)
		if evs := en.Tick(now, pr.Read()); len(evs) != 0 {
			t.Fatalf("re-raise produced transitions %v", evs)
		}
	}); allocs != 0 {
		t.Fatalf("a tick re-raising an active anomaly = %v allocs, want 0", allocs)
	}
	st := en.Status()
	if got := st.Active[0].Evidence["writes_since_advance"]; got != 15 {
		t.Fatalf("active evidence writes_since_advance = %v, want the refreshed 15", got)
	}
	if got := st.Recent[len(st.Recent)-1].Evidence["writes_since_advance"]; got != 10 {
		t.Fatalf("raise event's writes_since_advance = %v, want the 10 that tripped it", got)
	}
}

// benchRegistry is a registry shaped like a 12-node cluster member's: the
// five probe counters, a shard queue and 11 peer send queues among 60
// other gauges and 40 other counters.
func benchRegistry() *telemetry.Registry {
	reg := telemetry.NewRegistry()
	reg.Counter("gossip.rounds_total").Add(5)
	reg.Counter("gossip.frontiers_learned_total").Add(3)
	reg.Counter("core.writes_total").Add(100)
	reg.Counter("store.updates_applied_total").Add(300)
	reg.Counter("store.wal_errors_total")
	reg.Gauge("core.shard_queue_depth.0").Set(2)
	for p := 2; p <= 12; p++ {
		reg.Gauge(fmt.Sprintf("transport.queue_depth.n%d", p)).Set(int64(p))
	}
	for i := 0; i < 60; i++ {
		reg.Gauge(fmt.Sprintf("other.gauge_%d", i)).Set(int64(i))
	}
	for i := 0; i < 40; i++ {
		reg.Counter(fmt.Sprintf("other.counter_%d", i)).Add(int64(i))
	}
	return reg
}

// BenchmarkHealthTick is one healthy evaluation as a node's tick runs it:
// the probe read from the registry, then every detector.
func BenchmarkHealthTick(b *testing.B) {
	reg := benchRegistry()
	en := NewEngine(1, Config{}, reg)
	pr := NewProbeReader(reg)
	now := at(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(2 * time.Second)
		en.Tick(now, pr.Read())
	}
}

func TestGaugesTrackVerdict(t *testing.T) {
	reg := telemetry.NewRegistry()
	en := NewEngine(1, Config{}, reg)
	p := probe(nil, nil)
	p.WALErr = "torn"
	en.Tick(at(0), p)
	snap := reg.Snapshot()
	if v := snap.Gauges["health.verdict"]; v != int64(Critical) {
		t.Fatalf("health.verdict = %d, want %d", v, int64(Critical))
	}
	if v := snap.Gauges["health.wal_fsync_spike"]; v != int64(SevCritical) {
		t.Fatalf("health.wal_fsync_spike = %d, want %d", v, int64(SevCritical))
	}
	if v := snap.Gauges["health.active_anomalies"]; v != 1 {
		t.Fatalf("health.active_anomalies = %d, want 1", v)
	}
	if c := snap.Counters["health.ticks_total"]; c != 1 {
		t.Fatalf("health.ticks_total = %d, want 1", c)
	}
}
