package main

import (
	"testing"

	"idea/internal/id"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

func vec(counts map[id.NodeID]int) *vv.Vector {
	v := vv.New()
	for w, c := range counts {
		for i := 0; i < c; i++ {
			v.Tick(w, vv.Stamp(i+1), 0)
		}
	}
	return v
}

// A scripted apply order on a three-member top layer: visibility is the
// instant the last member's replica holds the write, resolve latency runs
// from the first low verdict to the next adoption on the same node, and a
// write that never reaches a member is a countable failure.
func TestTrackerScriptedApplyOrder(t *testing.T) {
	f := id.FileID("f")
	top := map[id.FileID][]id.NodeID{f: {1, 2, 3}}
	tr := newTracker([]id.FileID{f}, top, 0.95, nil)
	tr.window(0, 1000)

	// Node 1 writes seq 1 at t=10 (verdict at 30, level below the hint)
	// and seq 2 at t=40 (verdict at 55).
	tr.beginWrite(1, f)
	tr.wrote(1, f, 1, 101, 10, 12, nil)
	tr.onLevel(1, f, 101, 0.90, 30)
	tr.beginWrite(1, f)
	tr.wrote(1, f, 2, 102, 40, 41, nil)
	tr.onLevel(1, f, 102, 0.97, 55)

	// Node 2 adopts both at t=100; node 3 adopts only seq 1, at t=140.
	tr.onResolved(2, f, vec(map[id.NodeID]int{1: 2}), 100)
	tr.onResolved(1, f, vec(map[id.NodeID]int{1: 2}), 120) // node 1's own adoption closes its low verdict
	tr.onResolved(3, f, vec(map[id.NodeID]int{1: 1}), 140)
	if got := tr.pending(); got != 1 {
		t.Fatalf("pending = %d, want 1 (seq 2 has not reached node 3)", got)
	}

	tl := tr.tally()
	if len(tl.verdictNS) != 2 || tl.verdictNS[0].ns != 20 || tl.verdictNS[1].ns != 15 {
		t.Errorf("verdict samples = %+v, want 20 and 15", tl.verdictNS)
	}
	if len(tl.visibleNS) != 1 || tl.visibleNS[0].ns != 130 {
		t.Errorf("visibility samples = %+v, want one of 130 (t=140 − due 10)", tl.visibleNS)
	}
	if len(tl.resolveNS) != 1 || tl.resolveNS[0].ns != 90 {
		t.Errorf("resolve samples = %+v, want one of 90 (low verdict at 30 → adoption at 120)", tl.resolveNS)
	}
	if tl.verdicts != 2 || tl.conflicts != 2 {
		t.Errorf("verdicts/conflicts = %d/%d, want 2/2", tl.verdicts, tl.conflicts)
	}
	if tl.scoredWrites != 2 || tl.invisible != 1 || tl.unacked != 0 || tl.failedWrites != 1 {
		t.Errorf("tally = %+v, want the lost write counted once as a failure", tl)
	}
	if tl.acked[f][1] != 2 {
		t.Errorf("acked = %v, want writer 1 at seq 2", tl.acked)
	}

	// Once node 3 catches up the write is visible, late but not lost.
	tr.onResolved(3, f, vec(map[id.NodeID]int{1: 2}), 900)
	if tl := tr.tally(); tr.pending() != 0 || tl.failedWrites != 0 || len(tl.visibleNS) != 2 {
		t.Errorf("after catch-up: pending %d, tally %+v", tr.pending(), tl)
	}
}

// A lone writer's probe finalizes inside WriteTracked: the verdict arrives
// before the token is known and must still be matched; its write is visible
// the moment the call returns. Verdicts of ReadChecked match no write.
func TestTrackerSynchronousVerdictAndWindow(t *testing.T) {
	f := id.FileID("f")
	tr := newTracker([]id.FileID{f}, map[id.FileID][]id.NodeID{f: {1}}, 0.95, map[id.NodeID]int{1: 7})
	tr.window(100, 200)
	done := make(chan int64, 1)

	tr.beginWrite(1, f)
	tr.onLevel(1, f, 5, 1, 151) // fires inside the call
	tr.wrote(1, f, 8, 5, 150, 152, done)
	if at := <-done; at != 151 {
		t.Errorf("writer woken with %d, want the verdict instant 151", at)
	}
	tr.onLevel(1, f, 6, 1, 160) // a ReadChecked verdict: nobody waits

	// A warm-up write outside the window is tracked but not scored.
	tr.beginWrite(1, f)
	tr.onLevel(1, f, 7, 1, 51)
	tr.wrote(1, f, 9, 7, 50, 52, nil)

	tl := tr.tally()
	if len(tl.verdictNS) != 1 || tl.verdictNS[0].ns != 1 || len(tl.visibleNS) != 1 || tl.visibleNS[0].ns != 2 {
		t.Errorf("samples = %+v / %+v, want one verdict of 1 and one visibility of 2", tl.verdictNS, tl.visibleNS)
	}
	if tl.scoredWrites != 1 || tl.failedWrites != 0 || tl.acked[f][1] != 9 || tl.reissued != 0 {
		t.Errorf("tally = %+v", tl)
	}
}

// The correctness gate must fail — and name the failure — when an
// acknowledged write is missing from a top-layer replica.
func TestGateCatchesLostWrite(t *testing.T) {
	f := id.FileID("f")
	reps := map[id.NodeID]*store.Replica{1: store.NewReplica(f, 1), 2: store.NewReplica(f, 2)}
	for seq := 1; seq <= 3; seq++ {
		u := wire.Update{File: f, Writer: 1, Seq: seq, At: vv.Stamp(seq), Op: "w"}
		reps[1].Apply(u)
		if seq < 3 {
			reps[2].Apply(u) // node 2 never receives seq 3
		}
	}
	m := &measured{tl: tally{acked: map[id.FileID]map[id.NodeID]int{f: {1: 3}}}}
	m.gate([]id.FileID{f}, map[id.FileID][]id.NodeID{f: {1, 2}}, func(n id.NodeID, _ id.FileID) *store.Replica { return reps[n] })
	if m.attempted != 2 || m.failed != 2 {
		t.Fatalf("gate made %d checks and failed %d, want 2 and 2: %v", m.attempted, m.failed, m.failures)
	}
	res := &runResult{}
	res.absorb(m)
	if res.line().Correct || exitError(res) == nil {
		t.Error("a failed gate must make the result incorrect and the command exit non-zero")
	}

	reps[2].Apply(wire.Update{File: f, Writer: 1, Seq: 3, At: 3, Op: "w"})
	ok := &measured{tl: m.tl}
	ok.gate([]id.FileID{f}, map[id.FileID][]id.NodeID{f: {1, 2}}, func(n id.NodeID, _ id.FileID) *store.Replica { return reps[n] })
	if ok.failed != 0 {
		t.Errorf("a converged file failed the gate: %v", ok.failures)
	}
}
