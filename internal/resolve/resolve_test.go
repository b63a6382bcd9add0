package resolve

import (
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/simnet"
	"idea/internal/store"
	"idea/internal/vv"
)

const board = id.FileID("board")

// resNode embeds a Resolver for standalone protocol tests.
type resNode struct {
	st       *store.Store
	res      *Resolver
	outcomes []Outcome
	applied  int
	// around, when set, wraps every delivery to the resolver (msg is nil
	// for timers), so a test can watch the resolver from outside.
	around func(e env.Env, from id.NodeID, msg env.Message, deliver func(env.Env))
}

func (n *resNode) Start(e env.Env) {}
func (n *resNode) Recv(e env.Env, from id.NodeID, m env.Message) {
	n.deliver(e, from, m, func(e env.Env) { n.res.Recv(e, from, m) })
}
func (n *resNode) Timer(e env.Env, key string, data any) {
	n.deliver(e, id.Nil, nil, func(e env.Env) { n.res.Timer(e, key, data) })
}

func (n *resNode) deliver(e env.Env, from id.NodeID, m env.Message, fn func(env.Env)) {
	if n.around != nil {
		n.around(e, from, m, fn)
		return
	}
	fn(e)
}

type fixture struct {
	c     *simnet.Cluster
	nodes map[id.NodeID]*resNode
	ids   []id.NodeID
}

func build(t testing.TB, n int, cfg Config, seed int64) *fixture {
	t.Helper()
	ids := make([]id.NodeID, n)
	for i := range ids {
		ids[i] = id.NodeID(i + 1)
	}
	mem := overlay.NewStatic(ids, map[id.FileID][]id.NodeID{board: ids})
	c := simnet.New(simnet.Config{Seed: seed, Latency: simnet.Constant(50 * time.Millisecond)})
	nodes := make(map[id.NodeID]*resNode, n)
	for _, nid := range ids {
		rn := &resNode{st: store.New(nid)}
		rn.res = New(cfg, nid, mem, rn.st)
		rn.res.OnOutcome(func(_ env.Env, o Outcome) { rn.outcomes = append(rn.outcomes, o) })
		rn.res.OnApplied(func(_ env.Env, _ id.FileID, _ id.NodeID) { rn.applied++ })
		nodes[nid] = rn
		c.Add(nid, rn)
	}
	c.Start()
	return &fixture{c: c, nodes: nodes, ids: ids}
}

// conflict injects distinct concurrent writes at every node.
func (f *fixture) conflict(t *testing.T) {
	t.Helper()
	for i, nid := range f.ids {
		nid := nid
		count := i + 1
		f.c.CallAt(time.Second, nid, func(e env.Env) {
			r := f.nodes[nid].st.Open(board)
			for j := 0; j < count; j++ {
				r.WriteLocal(e.Stamp(), "w", nil, float64(10*int(nid)+j))
			}
		})
	}
	f.c.RunFor(2 * time.Second)
}

func (f *fixture) assertConverged(t *testing.T) {
	t.Helper()
	var ref *vv.Vector
	for nid, rn := range f.nodes {
		v := rn.st.Open(board).Vector()
		if ref == nil {
			ref = v
			continue
		}
		if vv.Compare(ref, v) != vv.Equal {
			t.Fatalf("node %v diverged: %v vs %v", nid, v, ref)
		}
	}
}

func TestActiveResolutionConvergesHighestID(t *testing.T) {
	f := build(t, 4, Config{}, 31)
	f.conflict(t)
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.RunFor(10 * time.Second)

	out := f.nodes[1].outcomes
	if len(out) != 1 || out[0].Aborted {
		t.Fatalf("outcomes = %+v", out)
	}
	if out[0].Winner != 4 {
		t.Fatalf("winner = %v, want highest ID 4", out[0].Winner)
	}
	f.assertConverged(t)
	// The image is node 4's replica: 4 updates, everyone else's extras
	// invalidated.
	if got := f.nodes[1].st.Open(board).Len(); got != 4 {
		t.Fatalf("converged log length = %d, want 4", got)
	}
}

func TestPhase1FastIsLocalAndPhase2SequentialRTT(t *testing.T) {
	f := build(t, 4, Config{}, 33)
	f.conflict(t)
	f.c.CallAt(3*time.Second, 2, func(e env.Env) { f.nodes[2].res.RequestActive(e, board) })
	f.c.RunFor(10 * time.Second)
	out := f.nodes[2].outcomes
	if len(out) != 1 {
		t.Fatalf("outcomes = %+v", out)
	}
	o := out[0]
	if o.Phase1 > time.Millisecond {
		t.Fatalf("fast phase 1 took %v, want ~0 (local dispatch)", o.Phase1)
	}
	// Phase 2: 3 sequential visits at 100 ms RTT each = ~300 ms.
	if o.Phase2 < 250*time.Millisecond || o.Phase2 > 450*time.Millisecond {
		t.Fatalf("phase 2 = %v, want ≈300 ms (3 sequential RTTs)", o.Phase2)
	}
}

func TestStrictPhase1WaitsForAcks(t *testing.T) {
	f := build(t, 4, Config{Phase1: StrictPhase1}, 35)
	f.conflict(t)
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.RunFor(10 * time.Second)
	out := f.nodes[1].outcomes
	if len(out) != 1 || out[0].Aborted {
		t.Fatalf("outcomes = %+v", out)
	}
	// Strict phase 1 costs one parallel RTT (~100 ms).
	if out[0].Phase1 < 80*time.Millisecond || out[0].Phase1 > 200*time.Millisecond {
		t.Fatalf("strict phase 1 = %v, want ≈100 ms", out[0].Phase1)
	}
	f.assertConverged(t)
}

func TestInvalidateBothRollsBackToCommonPrefix(t *testing.T) {
	f := build(t, 2, Config{Policy: InvalidateBoth}, 37)
	// Build a shared prefix: node 1 writes, node 2 applies it directly.
	f.c.CallAt(time.Second, 1, func(e env.Env) {
		u := f.nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		f.nodes[2].st.Open(board).Apply(u)
	})
	// Then conflicting updates on both.
	f.c.CallAt(2*time.Second, 1, func(e env.Env) {
		f.nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 2)
	})
	f.c.CallAt(2*time.Second, 2, func(e env.Env) {
		f.nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 3)
	})
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.RunFor(10 * time.Second)

	f.assertConverged(t)
	for nid, rn := range f.nodes {
		r := rn.st.Open(board)
		if r.Len() != 1 {
			t.Fatalf("node %v log = %d updates, want only the common prefix (1)", nid, r.Len())
		}
		if r.Vector().Count(1) != 1 || r.Vector().Count(2) != 0 {
			t.Fatalf("node %v vector = %v", nid, r.Vector())
		}
	}
}

func TestPriorityBasedWinner(t *testing.T) {
	f := build(t, 3, Config{
		Policy:     PriorityBased,
		Priorities: map[id.NodeID]id.Priority{1: id.PrioritySupervisor},
	}, 39)
	f.conflict(t)
	f.c.CallAt(3*time.Second, 2, func(e env.Env) { f.nodes[2].res.RequestActive(e, board) })
	f.c.RunFor(10 * time.Second)
	out := f.nodes[2].outcomes
	if len(out) != 1 || out[0].Winner != 1 {
		t.Fatalf("outcomes = %+v, want supervisor node 1 to win", out)
	}
	f.assertConverged(t)
}

func TestMergeAllKeepsEverything(t *testing.T) {
	f := build(t, 3, Config{Policy: MergeAll}, 41)
	f.conflict(t) // node i writes i updates: total 6
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.RunFor(10 * time.Second)
	f.assertConverged(t)
	if got := f.nodes[3].st.Open(board).Len(); got != 6 {
		t.Fatalf("merged log = %d updates, want all 6", got)
	}
}

func TestBackgroundResolutionPeriodicConvergence(t *testing.T) {
	f := build(t, 4, Config{}, 43)
	// Arm background resolution on every member: only the designated
	// (lowest-ID) node actually initiates.
	for _, nid := range f.ids {
		nid := nid
		f.c.CallAt(0, nid, func(e env.Env) {
			f.nodes[nid].res.SetBackgroundFreq(e, board, 20*time.Second)
		})
	}
	f.conflict(t)
	f.c.RunFor(25 * time.Second)
	f.assertConverged(t)
	// Exactly one initiator ran rounds: node 1.
	if f.nodes[1].res.Resolutions == 0 {
		t.Fatal("designated initiator never resolved")
	}
	for _, nid := range f.ids[1:] {
		if f.nodes[nid].res.Resolutions != 0 {
			t.Fatalf("non-designated node %v initiated", nid)
		}
	}
	// Background outcomes are flagged as such.
	if out := f.nodes[1].outcomes; len(out) == 0 || out[0].Active {
		t.Fatalf("outcomes = %+v", out)
	}
}

func TestBackgroundFreqZeroDisables(t *testing.T) {
	f := build(t, 2, Config{}, 45)
	f.c.CallAt(0, 1, func(e env.Env) {
		f.nodes[1].res.SetBackgroundFreq(e, board, 5*time.Second)
	})
	f.c.RunFor(12 * time.Second)
	before := f.nodes[1].res.Resolutions
	if before == 0 {
		t.Fatal("background never ran")
	}
	f.c.CallAt(f.c.Elapsed()+time.Millisecond, 1, func(e env.Env) {
		f.nodes[1].res.SetBackgroundFreq(e, board, 0)
	})
	f.c.RunFor(20 * time.Second)
	if f.nodes[1].res.Resolutions > before+1 {
		t.Fatalf("background kept running after disable: %d → %d", before, f.nodes[1].res.Resolutions)
	}
}

func TestCompetingInitiatorsBackOff(t *testing.T) {
	f := build(t, 4, Config{}, 47)
	f.conflict(t)
	// Two users demand resolution nearly simultaneously.
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.CallAt(3*time.Second+time.Millisecond, 3, func(e env.Env) { f.nodes[3].res.RequestActive(e, board) })
	f.c.RunFor(15 * time.Second)
	f.assertConverged(t)
	done := 0
	for _, rn := range f.nodes {
		for _, o := range rn.outcomes {
			if !o.Aborted {
				done++
			}
		}
	}
	if done == 0 {
		t.Fatal("no resolution completed")
	}
}

func TestUnresponsiveMemberSkipped(t *testing.T) {
	f := build(t, 4, Config{}, 49)
	f.conflict(t)
	f.c.Partition(1, 3) // member 3 unreachable from initiator 1
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.RunFor(15 * time.Second)
	out := f.nodes[1].outcomes
	if len(out) != 1 || out[0].Skipped != 1 {
		t.Fatalf("outcomes = %+v, want 1 skipped member", out)
	}
	if out[0].Phase2 < visitTimeout {
		t.Fatalf("phase 2 = %v, want the %v visit timeout spent on the skipped member", out[0].Phase2, visitTimeout)
	}
	// Nodes 1, 2, 4 still converge.
	v1 := f.nodes[1].st.Open(board).Vector()
	for _, nid := range []id.NodeID{2, 4} {
		if vv.Compare(v1, f.nodes[nid].st.Open(board).Vector()) != vv.Equal {
			t.Fatalf("node %v did not converge", nid)
		}
	}
}

func TestOnAppliedFiresEverywhere(t *testing.T) {
	f := build(t, 3, Config{}, 51)
	f.conflict(t)
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.RunFor(10 * time.Second)
	for nid, rn := range f.nodes {
		if rn.applied == 0 {
			t.Fatalf("node %v never saw OnApplied", nid)
		}
	}
}

func TestParallelCollectConvergesFaster(t *testing.T) {
	// §6.2: "letting an active writer contact all the other active
	// writers at once" makes phase 2 cost ~1 RTT instead of (n-1) RTTs.
	run := func(parallel bool) time.Duration {
		f := build(t, 6, Config{ParallelCollect: parallel}, 57)
		f.conflict(t)
		f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
		f.c.RunFor(15 * time.Second)
		out := f.nodes[1].outcomes
		if len(out) != 1 || out[0].Aborted {
			t.Fatalf("outcomes = %+v", out)
		}
		f.assertConverged(t)
		return out[0].Phase2
	}
	seq := run(false)
	par := run(true)
	if par >= seq/2 {
		t.Fatalf("parallel phase 2 (%v) should be far below sequential (%v)", par, seq)
	}
	// ~1 RTT at 100 ms.
	if par < 80*time.Millisecond || par > 250*time.Millisecond {
		t.Fatalf("parallel phase 2 = %v, want ≈1 RTT", par)
	}
}

func TestParallelCollectSkipsUnresponsive(t *testing.T) {
	f := build(t, 4, Config{ParallelCollect: true}, 59)
	f.conflict(t)
	f.c.Partition(1, 3)
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.RunFor(15 * time.Second)
	out := f.nodes[1].outcomes
	if len(out) != 1 || out[0].Skipped == 0 {
		t.Fatalf("outcomes = %+v, want a skipped member", out)
	}
	// Remaining nodes still converge.
	v1 := f.nodes[1].st.Open(board).Vector()
	for _, nid := range []id.NodeID{2, 4} {
		if vv.Compare(v1, f.nodes[nid].st.Open(board).Vector()) != vv.Equal {
			t.Fatalf("node %v did not converge", nid)
		}
	}
}

func TestLaggingMemberCannotWin(t *testing.T) {
	// Node 3 (highest ID) never wrote: its empty replica is dominated
	// by the writers' and must not become the consistent image.
	f := build(t, 3, Config{}, 55)
	f.c.CallAt(time.Second, 1, func(e env.Env) {
		f.nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
	})
	f.c.CallAt(time.Second, 2, func(e env.Env) {
		f.nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 2)
	})
	f.c.CallAt(2*time.Second, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	f.c.RunFor(10 * time.Second)
	out := f.nodes[1].outcomes
	if len(out) != 1 {
		t.Fatalf("outcomes = %+v", out)
	}
	if out[0].Winner != 2 {
		t.Fatalf("winner = %v, want highest conflicting writer 2 (not lagging 3)", out[0].Winner)
	}
	f.assertConverged(t)
	if got := f.nodes[3].st.Open(board).Len(); got != 1 {
		t.Fatalf("lagging member converged to %d updates, want winner's 1", got)
	}
}

func TestPolicyStringAndSet(t *testing.T) {
	f := build(t, 2, Config{}, 53)
	r := f.nodes[1].res
	if r.Policy() != HighestID {
		t.Fatalf("default policy = %v", r.Policy())
	}
	r.SetPolicy(MergeAll)
	if r.Policy() != MergeAll || r.Policy().String() != "merge-all" {
		t.Fatalf("SetPolicy failed: %v", r.Policy())
	}
	for p, want := range map[Policy]string{
		InvalidateBoth: "invalidate-both",
		HighestID:      "highest-id",
		PriorityBased:  "priority",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}
