package whiteboard

import (
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
)

const boardFile = id.FileID("board")

type fixture struct {
	c      *simnet.Cluster
	boards map[id.NodeID]*Board
	ids    []id.NodeID
}

func build(t *testing.T, n int, seed int64) *fixture {
	t.Helper()
	ids := cluster.IDs(n)
	sim, err := cluster.NewSim(cluster.Topology{
		Nodes:     ids,
		TopLayers: map[id.FileID][]id.NodeID{boardFile: ids},
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.DisableGossip = true
			return nil
		},
	}, simnet.Config{Seed: seed, Latency: simnet.Constant(40 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	boards := make(map[id.NodeID]*Board, n)
	for nid, node := range sim.Nodes {
		b, err := New(node, boardFile)
		if err != nil {
			t.Fatal(err)
		}
		boards[nid] = b
	}
	return &fixture{c: sim.C, boards: boards, ids: ids}
}

func TestOpRoundTrip(t *testing.T) {
	op := Op{Kind: "text", X: 3, Y: 7, Text: "hello, board"}
	got := DecodeOp(op.Encode())
	if got != op {
		t.Fatalf("round trip: %+v != %+v", got, op)
	}
}

func TestDrawAndView(t *testing.T) {
	f := build(t, 2, 101)
	f.c.CallAt(time.Second, 1, func(e env.Env) {
		f.boards[1].Draw(e, Op{Kind: "draw", X: 1, Y: 2, Text: "line"})
	})
	f.c.RunFor(2 * time.Second)
	ops := f.boards[1].View()
	if len(ops) != 1 || ops[0].Text != "line" {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestWeightsFavourOrder(t *testing.T) {
	f := build(t, 2, 103)
	w := f.boards[1].Node.Quantifier().W
	if w.Order <= w.Numerical || w.Order <= w.Staleness {
		t.Fatalf("weights %+v should favour order", w)
	}
}

func TestToleranceKeepsBoardConsistent(t *testing.T) {
	f := build(t, 4, 105)
	for _, nid := range f.ids {
		if err := f.boards[nid].SetTolerance(0.9); err != nil {
			t.Fatal(err)
		}
	}
	// Everyone draws concurrently every 5s for a minute.
	for s := 5 * time.Second; s <= 60*time.Second; s += 5 * time.Second {
		for _, nid := range f.ids {
			nid := nid
			f.c.CallAt(s, nid, func(e env.Env) {
				f.boards[nid].Draw(e, Op{Kind: "draw", X: int(nid), Y: 1, Text: "x"})
			})
		}
	}
	f.c.RunFor(70 * time.Second)
	// Hint-based resolution kept the perceived level high.
	for nid, b := range f.boards {
		if b.Level() < 0.85 {
			t.Fatalf("participant %v level %g; hint-based control failed", nid, b.Level())
		}
	}
}

func TestComplaintLearnsAndResolves(t *testing.T) {
	f := build(t, 2, 107)
	f.c.CallAt(time.Second, 1, func(e env.Env) {
		f.boards[1].Draw(e, Op{Kind: "text", Text: "A"})
	})
	f.c.CallAt(time.Second, 2, func(e env.Env) {
		f.boards[2].Draw(e, Op{Kind: "text", Text: "B"})
	})
	f.c.RunFor(3 * time.Second)
	if f.boards[1].Level() >= 1 {
		t.Fatal("no conflict perceived")
	}
	f.c.CallAt(4*time.Second, 1, func(e env.Env) { f.boards[1].Complain(e, nil) })
	f.c.RunFor(5 * time.Second)
	if f.boards[1].Level() != 1 {
		t.Fatalf("level after complaint = %g, want 1", f.boards[1].Level())
	}
	if f.boards[1].Node.DesiredLevel(boardFile) == 0 {
		t.Fatal("complaint taught nothing")
	}
}

func TestSnapshotTriggersDetection(t *testing.T) {
	f := build(t, 2, 109)
	f.c.CallAt(time.Second, 2, func(e env.Env) {
		f.boards[2].Draw(e, Op{Kind: "text", Text: "B"})
	})
	before := f.boards[1].Node.Detector().Detections
	f.c.CallAt(2*time.Second, 1, func(e env.Env) { f.boards[1].Snapshot(e) })
	f.c.RunFor(4 * time.Second)
	if f.boards[1].Node.Detector().Detections != before+1 {
		t.Fatal("snapshot did not trigger detection")
	}
}

func TestMetaIsASCIIWindowSum(t *testing.T) {
	f := build(t, 1, 111)
	var metas []float64
	for i := 0; i < MetaWindow+3; i++ {
		f.c.CallAt(time.Duration(i+1)*time.Second, 1, func(e env.Env) {
			u := f.boards[1].Draw(e, Op{Kind: "text", Text: "z"})
			metas = append(metas, u.Meta)
		})
	}
	f.c.RunFor(20 * time.Second)
	if len(metas) != MetaWindow+3 {
		t.Fatalf("wrote %d", len(metas))
	}
	// Once the window is full the ASCII sum stabilizes (identical ops).
	if metas[MetaWindow] != metas[MetaWindow+1] {
		t.Fatalf("window sum not stable: %v", metas)
	}
	if metas[0] >= metas[1] {
		t.Fatalf("sum should grow while window fills: %v", metas)
	}
}
