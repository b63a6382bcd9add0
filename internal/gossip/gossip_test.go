package gossip

import (
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/quantify"
	"idea/internal/simnet"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

const board = id.FileID("board")

// gossipNode wires a gossip Agent to a local store for standalone tests.
type gossipNode struct {
	st      *store.Store
	a       *Agent
	reports []wire.GossipReport
}

func (n *gossipNode) LocalVector(f id.FileID) *vv.Vector {
	r := n.st.Peek(f)
	if r == nil {
		return nil
	}
	return r.LiveVector()
}
func (n *gossipNode) ActiveFiles() []id.FileID { return n.st.Files() }

func (n *gossipNode) Start(e env.Env) { n.a.Start(e) }
func (n *gossipNode) Recv(e env.Env, from id.NodeID, m env.Message) {
	n.a.Recv(e, from, m)
}
func (n *gossipNode) Timer(e env.Env, key string, data any) {
	n.a.Timer(e, key, data)
}

func buildCluster(t *testing.T, n int, cfg Config, seed int64) (*simnet.Cluster, map[id.NodeID]*gossipNode) {
	t.Helper()
	ids := make([]id.NodeID, n)
	for i := range ids {
		ids[i] = id.NodeID(i + 1)
	}
	c := simnet.New(simnet.Config{Seed: seed, Latency: simnet.Constant(20 * time.Millisecond)})
	nodes := make(map[id.NodeID]*gossipNode, n)
	for _, nid := range ids {
		gn := &gossipNode{st: store.New(nid)}
		peers := make([]id.NodeID, 0, n-1)
		for _, p := range ids {
			if p != nid {
				peers = append(peers, p)
			}
		}
		gn.a = New(cfg, nid, peers, gn, quantify.Default(), func(_ env.Env, rep wire.GossipReport) {
			gn.reports = append(gn.reports, rep)
		})
		nodes[nid] = gn
		c.Add(nid, gn)
	}
	c.Start()
	return c, nodes
}

func TestNoConflictNoReports(t *testing.T) {
	c, nodes := buildCluster(t, 6, Config{Interval: 5 * time.Second}, 3)
	// Only node 1 writes; everyone else is empty — vectors are
	// comparable (Less/Greater), never concurrent.
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
	})
	c.RunFor(60 * time.Second)
	for nid, gn := range nodes {
		if gn.a.ConflictsFound != 0 {
			t.Fatalf("node %v found %d conflicts, want 0", nid, gn.a.ConflictsFound)
		}
		if len(gn.reports) != 0 {
			t.Fatalf("node %v got reports %v", nid, gn.reports)
		}
	}
}

func TestConflictDetectedAndReportedToOrigin(t *testing.T) {
	c, nodes := buildCluster(t, 8, Config{Interval: 5 * time.Second, Fanout: 3}, 4)
	// Nodes 1 and 2 write concurrently to their local replicas.
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
	})
	c.CallAt(time.Second, 2, func(e env.Env) {
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 5)
	})
	c.RunFor(120 * time.Second)
	if len(nodes[1].reports)+len(nodes[2].reports) == 0 {
		t.Fatal("conflicting writers never heard a gossip report")
	}
	rep := append(nodes[1].reports, nodes[2].reports...)[0]
	if rep.Level >= 1 || rep.Level < 0 {
		t.Fatalf("report level = %g", rep.Level)
	}
	if rep.Triple.Zero() {
		t.Fatal("report triple is zero for a real conflict")
	}
}

func TestDigestDeduplication(t *testing.T) {
	gn := &gossipNode{st: store.New(5)}
	gn.a = New(Config{}, 5, []id.NodeID{6}, gn, nil, nil)
	c := simnet.New(simnet.Config{Seed: 1})
	c.Add(5, gn)
	c.Add(6, &gossipNode{st: store.New(6), a: New(Config{}, 6, nil, &gossipNode{st: store.New(6)}, nil, nil)})
	c.Start()

	gn.st.Open(board).WriteLocal(1e9, "w", nil, 1)
	other := vv.New()
	other.Tick(7, 2e9, 9)
	d := wire.GossipDigest{File: board, Origin: 7, Round: 1, TTL: 1, VV: other}
	c.CallAt(time.Second, 5, func(e env.Env) { gn.a.HandleDigest(e, 6, d) })
	c.CallAt(2*time.Second, 5, func(e env.Env) { gn.a.HandleDigest(e, 6, d) })
	c.RunFor(5 * time.Second)
	if gn.a.ConflictsFound != 1 {
		t.Fatalf("conflicts = %d, want 1 (dedup)", gn.a.ConflictsFound)
	}
}

func TestTTLBoundsPropagation(t *testing.T) {
	// With TTL 1, a digest is never forwarded: total digest messages per
	// round per file are at most Fanout per origin.
	cfg := Config{Interval: 5 * time.Second, Fanout: 1, TTL: 1}
	c, nodes := buildCluster(t, 10, cfg, 9)
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
	})
	c.RunFor(21 * time.Second)
	// Rounds so far: jittered start, but at most 4 per node. Only node 1
	// has an active file, so only node 1 emits: <= 4 digests total.
	if got := c.Stats().Count("gossip.digest"); got > 4 {
		t.Fatalf("digests = %d, want <= 4 with TTL 1/fanout 1", got)
	}
}

func TestHigherTTLReachesFurther(t *testing.T) {
	countConflictHearers := func(ttl int) int {
		cfg := Config{Interval: 5 * time.Second, Fanout: 2, TTL: ttl}
		c, nodes := buildCluster(t, 20, cfg, 13)
		c.CallAt(time.Second, 1, func(e env.Env) {
			nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		})
		c.CallAt(time.Second, 2, func(e env.Env) {
			nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 5)
		})
		c.RunFor(50 * time.Second)
		n := 0
		for _, gn := range nodes {
			n += gn.a.ConflictsFound
		}
		return n
	}
	low, high := countConflictHearers(1), countConflictHearers(4)
	if high <= low {
		t.Fatalf("TTL 4 found %d conflicts, TTL 1 found %d; want more at higher TTL", high, low)
	}
}

func TestRoundsDesynchronized(t *testing.T) {
	// Start jitter means not all first rounds coincide; just assert the
	// agent arms itself and keeps emitting over time.
	c, nodes := buildCluster(t, 4, Config{Interval: 5 * time.Second}, 17)
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
	})
	c.RunFor(30 * time.Second)
	first := c.Stats().Count("gossip.digest")
	c.RunFor(30 * time.Second)
	if c.Stats().Count("gossip.digest") <= first {
		t.Fatal("gossip stopped emitting")
	}
}
