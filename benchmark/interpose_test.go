package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/wire"
)

// routed is a sharded handler with routing no real handler has, so a
// wrapper that computed anything itself would be caught.
type routed struct{ env.HandlerFuncs }

func (routed) Shards() int                      { return 7 }
func (routed) ShardOfFile(f id.FileID) int      { return len(f) }
func (routed) ShardOfMessage(m env.Message) int { return len(m.Kind()) }
func (routed) ShardOfTimer(key string, data any) int {
	n, _ := data.(int)
	return len(key) + n
}

func TestInterposerForwardsRoutingUnchanged(t *testing.T) {
	inner := routed{}
	h := newTracedHandler(newTracer(time.Now(), true), 1, inner)
	var sh env.Sharded = h
	if sh.Shards() != inner.Shards() || env.ShardCount(h) != 7 {
		t.Errorf("Shards = %d, want %d", sh.Shards(), inner.Shards())
	}
	for _, f := range []id.FileID{"", "a", "abcd"} {
		if sh.ShardOfFile(f) != inner.ShardOfFile(f) {
			t.Errorf("ShardOfFile(%q) = %d, want %d", f, sh.ShardOfFile(f), inner.ShardOfFile(f))
		}
	}
	for _, m := range []env.Message{wire.DetectRequest{}, wire.Inform{}, wire.SwimPing{}} {
		if sh.ShardOfMessage(m) != inner.ShardOfMessage(m) {
			t.Errorf("ShardOfMessage(%s) = %d, want %d", m.Kind(), sh.ShardOfMessage(m), inner.ShardOfMessage(m))
		}
	}
	if got, want := sh.ShardOfTimer("gossip.round", 3), inner.ShardOfTimer("gossip.round", 3); got != want {
		t.Errorf("ShardOfTimer = %d, want %d", got, want)
	}

	// A plain (unsharded) handler stays one domain behind the wrapper.
	plain := newTracedHandler(newTracer(time.Now(), true), 1, env.HandlerFuncs{})
	if env.ShardCount(plain) != 1 || plain.ShardOfFile("abc") != 0 {
		t.Error("a plain handler must stay single-domain behind the wrapper")
	}
}

// The wrapper may not perturb a seeded schedule: the same workload with and
// without it must dispatch byte-for-byte the same events and yield the same
// counters and the same virtual-time samples.
func TestInterposerLeavesSeededSimnetRunIdentical(t *testing.T) {
	sp, _ := findSpec("sim-wan-hint")
	run := func(traced bool) (*simCluster, []byte) {
		var buf bytes.Buffer
		c := buildSim(sp, 42, traced, &buf)
		c.tr.window(0, int64(time.Hour))
		c.runFor(120 * time.Second)
		c.quiesce()
		return c, buf.Bytes()
	}
	plain, plainTrace := run(false)
	wrapped, wrappedTrace := run(true)
	if len(plainTrace) == 0 || !bytes.Equal(plainTrace, wrappedTrace) {
		t.Fatalf("event schedules differ (%d vs %d bytes)", len(plainTrace), len(wrappedTrace))
	}
	if plain.sim.Events() != wrapped.sim.Events() ||
		plain.sim.Stats().Bytes() != wrapped.sim.Stats().Bytes() ||
		!reflect.DeepEqual(plain.sim.Stats().Snapshot(), wrapped.sim.Stats().Snapshot()) {
		t.Error("Events()/Stats differ between the plain and the interposed run")
	}
	a, b := plain.tr.tally(), wrapped.tr.tally()
	if !reflect.DeepEqual(a.verdictNS, b.verdictNS) || !reflect.DeepEqual(a.visibleNS, b.visibleNS) || !reflect.DeepEqual(a.resolveNS, b.resolveNS) {
		t.Error("virtual-time samples differ between the plain and the interposed run")
	}
	if len(a.verdictNS) == 0 || len(a.visibleNS) == 0 {
		t.Error("the run produced no samples to compare")
	}

	// And the wrapper did observe the run it did not disturb.
	tot := wrapped.tracer.totals(0, int64(time.Hour))
	if tot.handlers == 0 || len(tot.byName["core.write_call"]) == 0 || len(wrapped.tracer.sent()) == 0 {
		t.Errorf("the interposer recorded nothing: %d handlers", tot.handlers)
	}
}

// A parent's self time is its span minus the children it covers.
func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(time.Now(), true)
	l := tr.newLane(1, 0)
	l.next++ // parent id 1
	l.add(rawSpan{parent: 1, name: "core.write_call", start: 20, end: 80})
	l.spans = append(l.spans, rawSpan{id: 1, name: "app.inject", start: 10, end: 100})
	l.add(rawSpan{name: "detect.req", recv: true, start: 200, end: 230})
	tot := tr.totals(0, 1000)
	if tot.busyNS["app"] != 30 || tot.busyNS["core"] != 60 || tot.busyNS["detect"] != 30 {
		t.Errorf("self times = %v, want app 30, core 60, detect 30", tot.busyNS)
	}
	if tot.topNS != 120 || tot.handlers != 2 || len(tot.recvByLayer["detect"]) != 1 {
		t.Errorf("totals = %+v", tot)
	}
}
