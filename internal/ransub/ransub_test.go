package ransub

import (
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
)

const board = id.FileID("board")

// agentNode adapts an Agent to env.Handler for standalone testing.
type agentNode struct{ a *Agent }

func (n *agentNode) Start(e env.Env) { n.a.Start(e) }
func (n *agentNode) Recv(e env.Env, from id.NodeID, m env.Message) {
	n.a.Recv(e, from, m)
}
func (n *agentNode) Timer(e env.Env, key string, data any) {
	n.a.Timer(e, key, data)
}

func buildCluster(t *testing.T, n int, cfg Config) (*simnet.Cluster, map[id.NodeID]*Agent) {
	t.Helper()
	ids := make([]id.NodeID, n)
	for i := range ids {
		ids[i] = id.NodeID(i + 1)
	}
	c := simnet.New(simnet.Config{Seed: 11, Latency: simnet.Constant(20 * time.Millisecond)})
	agents := make(map[id.NodeID]*Agent, n)
	for _, nid := range ids {
		a := New(cfg, nid, ids)
		agents[nid] = a
		c.Add(nid, &agentNode{a: a})
	}
	c.Start()
	return c, agents
}

func TestTreeShape(t *testing.T) {
	ids := []id.NodeID{1, 2, 3, 4, 5}
	root := New(Config{}, 1, ids)
	if _, ok := root.parent(); ok {
		t.Fatal("root has a parent")
	}
	if ch := root.children(); len(ch) != 2 || ch[0] != 2 || ch[1] != 3 {
		t.Fatalf("root children = %v", ch)
	}
	leaf := New(Config{}, 5, ids)
	if p, ok := leaf.parent(); !ok || p != 2 {
		t.Fatalf("leaf parent = %v", p)
	}
	if ch := leaf.children(); len(ch) != 0 {
		t.Fatalf("leaf children = %v", ch)
	}
}

func TestRecordUpdateAndLocalHot(t *testing.T) {
	a := New(Config{}, 1, []id.NodeID{1, 2})
	if a.Hot(board, 1) {
		t.Fatal("cold node reported hot")
	}
	a.RecordUpdate(board)
	if !a.Hot(board, 1) {
		t.Fatal("updating node not hot")
	}
	if got := a.Temperature(board); got != 1 {
		t.Fatalf("temp = %g", got)
	}
}

func TestHotSetConvergesToWriters(t *testing.T) {
	cfg := Config{Epoch: 5 * time.Second}
	c, agents := buildCluster(t, 12, cfg)
	writers := []id.NodeID{2, 5, 9, 11}

	// Writers update every 2s for 60s.
	for s := 2 * time.Second; s <= 60*time.Second; s += 2 * time.Second {
		for _, w := range writers {
			w := w
			c.CallAt(s, w, func(env.Env) { agents[w].RecordUpdate(board) })
		}
	}
	c.RunFor(70 * time.Second)

	for _, w := range writers {
		hs := agents[w].HotSet(board)
		if len(hs) != len(writers) {
			t.Fatalf("writer %v hot set = %v, want %v", w, hs, writers)
		}
		for i, want := range writers {
			if hs[i] != want {
				t.Fatalf("writer %v hot set = %v, want %v", w, hs, writers)
			}
		}
	}
	// A cold bystander also learns the overlay via the distribute wave.
	if hs := agents[1].HotSet(board); len(hs) != len(writers) {
		t.Fatalf("bystander hot set = %v, want the 4 writers", hs)
	}
}

func TestTemperatureDecaysWhenWriterStops(t *testing.T) {
	cfg := Config{Epoch: 5 * time.Second}
	c, agents := buildCluster(t, 6, cfg)
	// Node 3 updates for 20s, then stops.
	for s := 2 * time.Second; s <= 20*time.Second; s += 2 * time.Second {
		c.CallAt(s, 3, func(env.Env) { agents[3].RecordUpdate(board) })
	}
	c.RunFor(25 * time.Second)
	if !agents[3].Hot(board, 3) {
		t.Fatal("active writer not hot")
	}
	c.RunFor(60 * time.Second)
	if agents[3].Hot(board, 3) {
		t.Fatal("idle writer still hot after decay")
	}
	if hs := agents[1].HotSet(board); len(hs) != 0 {
		t.Fatalf("peers still believe %v is hot: %v", id.NodeID(3), hs)
	}
}

func TestSampleBounded(t *testing.T) {
	cfg := Config{Epoch: 5 * time.Second}
	c, agents := buildCluster(t, 20, cfg)
	// Every node is a writer — the candidate set, 20, exceeds the sample
	// size, 8.
	for s := 2 * time.Second; s <= 30*time.Second; s += 2 * time.Second {
		for nid, a := range agents {
			a := a
			c.CallAt(s, nid, func(env.Env) { a.RecordUpdate(board) })
		}
	}
	c.RunFor(40 * time.Second)
	// Protocol must still run (no panic) and every agent knows itself hot.
	for nid, a := range agents {
		if !a.Hot(board, nid) {
			t.Fatalf("node %v not hot", nid)
		}
	}
}

func TestPerFileIndependence(t *testing.T) {
	cfg := Config{Epoch: 5 * time.Second}
	c, agents := buildCluster(t, 8, cfg)
	other := id.FileID("tickets")
	for s := 2 * time.Second; s <= 40*time.Second; s += 2 * time.Second {
		c.CallAt(s, 2, func(env.Env) { agents[2].RecordUpdate(board) })
		c.CallAt(s, 7, func(env.Env) { agents[7].RecordUpdate(other) })
	}
	c.RunFor(50 * time.Second)
	if hs := agents[1].HotSet(board); len(hs) != 1 || hs[0] != 2 {
		t.Fatalf("board hot set = %v, want [2]", hs)
	}
	if hs := agents[1].HotSet(other); len(hs) != 1 || hs[0] != 7 {
		t.Fatalf("tickets hot set = %v, want [7]", hs)
	}
}

func TestKnownFilesSorted(t *testing.T) {
	a := New(Config{}, 1, []id.NodeID{1})
	a.RecordUpdate("z")
	a.RecordUpdate("a")
	fs := a.KnownFiles()
	if len(fs) != 2 || fs[0] != "a" || fs[1] != "z" {
		t.Fatalf("files = %v", fs)
	}
}

func TestSurvivesMessageLoss(t *testing.T) {
	ids := make([]id.NodeID, 10)
	for i := range ids {
		ids[i] = id.NodeID(i + 1)
	}
	c := simnet.New(simnet.Config{Seed: 5, Latency: simnet.Constant(20 * time.Millisecond), Loss: 0.2})
	agents := make(map[id.NodeID]*Agent)
	for _, nid := range ids {
		a := New(Config{Epoch: 5 * time.Second}, nid, ids)
		agents[nid] = a
		c.Add(nid, &agentNode{a: a})
	}
	c.Start()
	for s := 2 * time.Second; s <= 90*time.Second; s += 2 * time.Second {
		c.CallAt(s, 4, func(env.Env) { agents[4].RecordUpdate(board) })
	}
	c.RunFor(100 * time.Second)
	// Despite 20% loss the overlay still converges at most nodes.
	knowers := 0
	for _, a := range agents {
		if a.Hot(board, 4) {
			knowers++
		}
	}
	if knowers < 5 {
		t.Fatalf("only %d/10 agents learned the hot writer under loss", knowers)
	}
}
