// Package integration exercises the full IDEA stack the way the paper's
// PlanetLab deployment did: 40 nodes, dynamic RanSub overlay election,
// gossip bottom layer, both applications, failure injection — everything
// on at once.
package integration

import (
	"testing"
	"time"

	"idea/internal/apps/whiteboard"
	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/gossip"
	"idea/internal/id"
	"idea/internal/ransub"
	"idea/internal/simnet"
	"idea/internal/vv"
)

const board = id.FileID("board")

type deployment struct {
	c     *simnet.Cluster
	nodes map[id.NodeID]*core.Node
	all   []id.NodeID
}

// deploy builds an n-node full-stack cluster: dynamic overlay, gossip on.
func deploy(t *testing.T, n int, seed int64, loss float64) *deployment {
	t.Helper()
	s, err := cluster.NewSim(cluster.Topology{
		Nodes: cluster.IDs(n),
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Ransub = ransub.Config{Epoch: 5 * time.Second}
			o.Gossip = gossip.Config{Interval: 10 * time.Second, Fanout: 2, TTL: 3}
			return nil
		},
	}, simnet.Config{Seed: seed, Latency: simnet.WAN{}, Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	return &deployment{c: s.C, nodes: s.Nodes, all: cluster.IDs(n)}
}

func (d *deployment) write(at time.Duration, nid id.NodeID) {
	d.c.CallAt(at, nid, func(e env.Env) {
		d.nodes[nid].Write(e, board, "draw", []byte("op"), 0)
	})
}

func TestFullStackDynamicOverlayAndResolution(t *testing.T) {
	d := deploy(t, 40, 201, 0)
	writers := []id.NodeID{3, 11, 27, 35}

	// Warm-up epoch: writers update; RanSub elects them.
	for s := 2 * time.Second; s <= 60*time.Second; s += 5 * time.Second {
		for _, w := range writers {
			d.write(s, w)
		}
	}
	// Check while the writers are still warm: temperatures decay by
	// design once updates stop (recency dominates, §4.1).
	d.c.RunFor(62 * time.Second)

	// Every writer's dynamic view agrees on the top layer.
	for _, w := range writers {
		top := d.nodes[w].Membership().Top(board)
		if len(top) != len(writers) {
			t.Fatalf("writer %v sees top layer %v, want %v", w, top, writers)
		}
	}

	// Now demand resolution and verify writers converge.
	d.c.CallAt(d.c.Elapsed()+time.Second, writers[0], func(e env.Env) {
		d.nodes[writers[0]].DemandActiveResolution(e, board)
	})
	d.c.RunFor(10 * time.Second)
	ref := d.nodes[writers[0]].Store().Open(board).Vector()
	for _, w := range writers[1:] {
		if vv.Compare(ref, d.nodes[w].Store().Open(board).Vector()) != vv.Equal {
			t.Fatalf("writer %v did not converge", w)
		}
	}
}

func TestFullStackHintUnderLoss(t *testing.T) {
	// 5% message loss: timeouts and retries must keep the protocol live.
	d := deploy(t, 16, 203, 0.05)
	writers := []id.NodeID{1, 2, 3, 4}
	for _, w := range writers {
		w := w
		d.c.CallAt(0, w, func(e env.Env) {
			if err := d.nodes[w].SetHint(board, 0.9); err != nil {
				t.Error(err)
			}
		})
	}
	for s := 2 * time.Second; s <= 120*time.Second; s += 5 * time.Second {
		for _, w := range writers {
			d.write(s, w)
		}
	}
	d.c.RunFor(140 * time.Second)
	resolved := 0
	for _, w := range writers {
		resolved += d.nodes[w].Resolver().Resolutions
	}
	if resolved == 0 {
		t.Fatal("no resolutions completed under loss")
	}
	if d.c.Stats().Dropped() == 0 {
		t.Fatal("loss model inactive — test is vacuous")
	}
}

func TestFullStackCrashedWriterSkipped(t *testing.T) {
	d := deploy(t, 12, 205, 0)
	writers := []id.NodeID{1, 2, 3, 4}
	for s := 2 * time.Second; s <= 40*time.Second; s += 5 * time.Second {
		for _, w := range writers {
			d.write(s, w)
		}
	}
	// Crash writer 3 while the overlay is still warm (temperatures decay
	// once updates stop, so the resolution must run soon after).
	d.c.RunFor(41 * time.Second)
	for _, n := range d.all {
		if n != 3 {
			d.c.Partition(3, n)
		}
	}
	d.c.CallAt(d.c.Elapsed()+time.Second, 1, func(e env.Env) {
		d.nodes[1].DemandActiveResolution(e, board)
	})
	d.c.RunFor(20 * time.Second)
	// Survivors converge despite the dead member.
	ref := d.nodes[1].Store().Open(board).Vector()
	for _, w := range []id.NodeID{2, 4} {
		if vv.Compare(ref, d.nodes[w].Store().Open(board).Vector()) != vv.Equal {
			t.Fatalf("survivor %v did not converge", w)
		}
	}
}

func TestFullStackTwoIndependentFiles(t *testing.T) {
	// §4.1: different files have different top layers that do not
	// interfere. Two disjoint writer groups on two files.
	d := deploy(t, 20, 207, 0)
	other := id.FileID("tickets")
	groupA := []id.NodeID{1, 2}
	groupB := []id.NodeID{11, 12}
	for s := 2 * time.Second; s <= 60*time.Second; s += 5 * time.Second {
		for _, w := range groupA {
			d.write(s, w)
		}
		for _, w := range groupB {
			w := w
			d.c.CallAt(s, w, func(e env.Env) {
				d.nodes[w].Write(e, other, "book", nil, 0)
			})
		}
	}
	d.c.RunFor(62 * time.Second)
	// Each group's top layer contains exactly its own writers.
	topA := d.nodes[1].Membership().Top(board)
	topB := d.nodes[11].Membership().Top(other)
	if len(topA) != 2 || topA[0] != 1 || topA[1] != 2 {
		t.Fatalf("board top layer = %v", topA)
	}
	if len(topB) != 2 || topB[0] != 11 || topB[1] != 12 {
		t.Fatalf("tickets top layer = %v", topB)
	}
	if d.nodes[1].Membership().IsTop(other, 1) {
		t.Fatal("board writer leaked into tickets top layer")
	}
}

func TestFullStackWhiteboardApplication(t *testing.T) {
	d := deploy(t, 10, 209, 0)
	writers := []id.NodeID{1, 2, 3}
	boards := map[id.NodeID]*whiteboard.Board{}
	for _, w := range writers {
		b, err := whiteboard.New(d.nodes[w], board)
		if err != nil {
			t.Fatal(err)
		}
		boards[w] = b
		w := w
		d.c.CallAt(0, w, func(e env.Env) {
			if err := boards[w].SetTolerance(0.9); err != nil {
				t.Error(err)
			}
		})
	}
	for s := 2 * time.Second; s <= 90*time.Second; s += 5 * time.Second {
		for _, w := range writers {
			w := w
			d.c.CallAt(s, w, func(e env.Env) {
				boards[w].Draw(e, whiteboard.Op{Kind: "draw", X: int(w), Text: "s"})
			})
		}
	}
	d.c.RunFor(110 * time.Second)
	for _, w := range writers {
		if lvl := boards[w].Level(); lvl < 0.85 {
			t.Fatalf("participant %v level %.4f under full stack", w, lvl)
		}
	}
	// Final convergence check after one demanded resolution.
	d.c.CallAt(d.c.Elapsed()+time.Second, 1, func(e env.Env) {
		d.nodes[1].DemandActiveResolution(e, board)
	})
	d.c.RunFor(10 * time.Second)
	ref := d.nodes[1].Store().Open(board).Vector()
	for _, w := range writers[1:] {
		if vv.Compare(ref, d.nodes[w].Store().Open(board).Vector()) != vv.Equal {
			t.Fatalf("participant %v diverged at the end", w)
		}
	}
}
