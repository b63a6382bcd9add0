package idea_test

import (
	"testing"
	"time"

	"idea"
)

const board = idea.FileID("board")

func newCluster(t *testing.T, n int, pinTop bool) *idea.EmulatedCluster {
	t.Helper()
	nodes := make([]idea.NodeID, n)
	for i := range nodes {
		nodes[i] = idea.NodeID(i + 1)
	}
	cfg := idea.EmulatedClusterConfig{
		Seed:          7,
		Nodes:         nodes,
		DisableGossip: true,
	}
	if pinTop {
		cfg.TopLayers = map[idea.FileID][]idea.NodeID{board: nodes}
	}
	return idea.NewEmulatedCluster(cfg)
}

func TestFacadeEndToEnd(t *testing.T) {
	cl := newCluster(t, 4, true)
	for _, n := range cl.Nodes() {
		if err := n.SetHint(board, 0.95); err != nil {
			t.Fatal(err)
		}
		if err := n.SetResolution(idea.MergeAll); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 6; round++ {
		for nid := idea.NodeID(1); nid <= 4; nid++ {
			nid := nid
			cl.Call(0, nid, func(e idea.Env) {
				cl.Node(nid).Write(e, board, "draw", []byte("x"), 0)
			})
		}
		cl.Run(5 * time.Second)
	}
	cl.Run(10 * time.Second)
	// Hint-based control kept things together; after a final demand all
	// replicas converge on the union (merge-all).
	cl.Call(0, 1, func(e idea.Env) { cl.Node(1).DemandActiveResolution(e, board) })
	cl.Run(5 * time.Second)
	want := len(cl.Node(1).Read(board))
	if want != 24 {
		t.Fatalf("merged log = %d updates, want 24", want)
	}
	for nid := idea.NodeID(2); nid <= 4; nid++ {
		if got := len(cl.Node(nid).Read(board)); got != want {
			t.Fatalf("node %v holds %d, want %d", nid, got, want)
		}
	}
	if cl.Messages() == 0 || cl.MessageBytes() == 0 {
		t.Fatal("no overhead recorded")
	}
}

func TestFacadeDynamicOverlay(t *testing.T) {
	// No pinned top layers: RanSub elects the writers dynamically.
	cl := newCluster(t, 8, false)
	for round := 0; round < 20; round++ {
		for _, nid := range []idea.NodeID{2, 5} {
			nid := nid
			cl.Call(0, nid, func(e idea.Env) {
				cl.Node(nid).Write(e, board, "draw", []byte("y"), 0)
			})
		}
		cl.Run(5 * time.Second)
	}
	top := cl.Node(2).Membership().Top(board)
	if len(top) != 2 || top[0] != 2 || top[1] != 5 {
		t.Fatalf("elected top layer = %v, want [2 5]", top)
	}
}

func TestFacadePartitionHeal(t *testing.T) {
	cl := newCluster(t, 2, true)
	cl.Partition(1, 2)
	cl.Call(0, 1, func(e idea.Env) { cl.Node(1).Write(e, board, "w", []byte("a"), 0) })
	cl.Run(5 * time.Second)
	if got := len(cl.Node(2).Read(board)); got != 0 {
		t.Fatalf("update crossed partition: %d", got)
	}
	cl.Heal(1, 2)
	cl.Call(0, 1, func(e idea.Env) { cl.Node(1).DemandActiveResolution(e, board) })
	cl.Run(5 * time.Second)
	if got := len(cl.Node(2).Read(board)); got != 1 {
		t.Fatalf("node 2 holds %d after heal+resolve, want 1", got)
	}
}

func TestFacadeLiveTCP(t *testing.T) {
	all := []idea.NodeID{1, 2}
	top := map[idea.FileID][]idea.NodeID{board: all}
	n1, err := idea.NewLiveNode(idea.LiveNodeConfig{
		Self: 1, Listen: "127.0.0.1:0", Peers: map[idea.NodeID]string{}, All: all, TopLayers: top,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := idea.NewLiveNode(idea.LiveNodeConfig{
		Self: 2, Listen: "127.0.0.1:0", Peers: map[idea.NodeID]string{1: n1.Addr()}, All: all, TopLayers: top,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.AddPeer(2, n2.Addr())

	done := make(chan idea.Update, 1)
	n1.InjectFile(board, func(e idea.Env) {
		done <- n1.N.Write(e, board, "text", []byte("over tcp"), 0)
	})
	u := <-done
	// Resolve from node 2 so its replica pulls the update.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got := make(chan int, 1)
		n2.InjectFile(board, func(e idea.Env) {
			n2.N.DemandActiveResolution(e, board)
			got <- len(n2.N.Read(board))
		})
		if <-got == 1 {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("update %s never reached node 2 over TCP", u.Key())
}
