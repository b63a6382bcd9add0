package gossip

import (
	"testing"
	"time"

	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

const board = id.FileID("board")

// gossipNode wires a gossip Agent to a local store for standalone tests.
// Reports it hears as origin are scored as a node scores them, by a
// detect.Detector (see listen).
type gossipNode struct {
	st      *store.Store
	a       *Agent
	det     *detect.Detector
	digests []wire.GossipDigest // digests delivered to this node
	reports []wire.GossipReport // reports heard as origin
	levels  []float64           // the bottom-layer level of each report
}

// listen is the agent's report sink: it records the report and scores it.
func (n *gossipNode) listen(e env.Env, rep wire.GossipReport, advertised *vv.Vector) {
	n.reports = append(n.reports, rep)
	n.levels = append(n.levels, n.score(e, rep, advertised))
}

// score runs the origin's §4.4.2 check (detect.HandleGossipReport) on a
// report and returns the bottom-layer level it raised a discrepancy with,
// or 1 when it raised none (no top-layer verdict is on record, so any
// level below 1 - eps raises one).
func (n *gossipNode) score(e env.Env, rep wire.GossipReport, advertised *vv.Vector) float64 {
	if n.det == nil {
		n.det = detect.New(detect.Config{}, n.a.self, nil, n.st, nil)
	}
	level := 1.0
	n.det.OnDiscrepancy(func(_ env.Env, _ id.FileID, _, bottom float64, _ wire.GossipReport) { level = bottom })
	n.det.HandleGossipReport(e, rep, advertised)
	return level
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
	if d, ok := m.(wire.GossipDigest); ok {
		n.digests = append(n.digests, d)
	}
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
		gn.a = New(cfg, nid, peers, gn, gn.listen)
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
	// Nodes 1 and 2 share three of node 1's updates, then write
	// concurrently to their local replicas.
	c.CallAt(500*time.Millisecond, 1, func(e env.Env) {
		for i := 0; i < 3; i++ {
			nodes[2].st.Open(board).Apply(nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 3))
		}
	})
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
	})
	c.CallAt(time.Second, 2, func(e env.Env) {
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 5)
	})
	c.RunFor(120 * time.Second)
	// Node 2's replica is the reference (highest ID), so node 1 is the
	// writer whose level drops.
	origin := nodes[1]
	if len(origin.reports) == 0 {
		t.Fatal("conflicting writer never heard a gossip report")
	}
	rep, level := origin.reports[0], origin.levels[0]
	var digest *wire.GossipDigest
	for i, d := range nodes[rep.Reporter].digests {
		if d.Origin == 1 && d.Round == rep.Round {
			digest = &nodes[rep.Reporter].digests[i]
		}
	}
	if digest == nil {
		t.Fatalf("report names round %d, which reporter %v never got a digest of", rep.Round, rep.Reporter)
	}
	for w, e := range rep.VV.Entries {
		if e.Base < min(digest.VV.Count(w), e.Count) {
			t.Fatalf("report ships writer %v's stamps from %d, below the digest's count %d", w, e.Base, digest.VV.Count(w))
		}
	}
	if level >= 1 || level < 0 {
		t.Fatalf("report level = %g", level)
	}
	// Nobody writes after 1s, so both replicas still hold what they held
	// when the digest went out.
	whole := wire.GossipReport{File: board, Reporter: rep.Reporter, VV: nodes[rep.Reporter].st.Peek(board).Vector()}
	if want := origin.score(c.Env(1), whole, origin.st.Peek(board).Vector()); level != want {
		t.Fatalf("origin scored %g, the whole vectors score %g", level, want)
	}
}

// TestOriginScoresDigestExact: the origin is 12 writer-1 updates ahead of
// the reporter past three shared ones, and the reporter holds one writer-2
// update. The level the origin scores from the report equals Formula 1 on
// the two whole vectors: the end of the shared prefix sits 12 stamps back
// in the origin's window, and staleness is measured from it.
func TestOriginScoresDigestExact(t *testing.T) {
	c := simnet.New(simnet.Config{Seed: 5})
	origin, reporter := &gossipNode{st: store.New(1)}, &gossipNode{st: store.New(2)}
	origin.a = New(Config{Interval: 2 * time.Second}, 1, []id.NodeID{2}, origin, origin.listen)
	reporter.a = New(Config{Interval: 2 * time.Second}, 2, []id.NodeID{1}, reporter, nil)
	c.Add(1, origin)
	c.Add(2, reporter)
	c.Start()
	for i := 1; i <= 15; i++ {
		u := origin.st.Open(board).WriteLocal(vv.Stamp(i)*1e9, "w", nil, float64(i))
		if i <= 3 {
			reporter.st.Open(board).Apply(u)
		}
	}
	reporter.st.Open(board).WriteLocal(16e9, "w", nil, 9)
	c.RunFor(10 * time.Second)
	if len(origin.reports) == 0 {
		t.Fatal("origin heard no report")
	}
	whole := wire.GossipReport{File: board, Reporter: 2, VV: reporter.st.Peek(board).Vector()}
	want := origin.score(c.Env(1), whole, origin.st.Peek(board).Vector())
	if want >= 1 {
		t.Fatalf("whole vectors score %g, want a conflict", want)
	}
	for i, got := range origin.levels {
		if got != want {
			t.Fatalf("report %d scored %g, the whole vectors score %g", i, got, want)
		}
	}
}

// TestReportForUnknownRoundDropped: the origin keeps the vector behind a
// digest for seenRounds rounds; a report on an older digest cannot be
// scored and is dropped before it is counted.
func TestReportForUnknownRoundDropped(t *testing.T) {
	c := simnet.New(simnet.Config{Seed: 5})
	origin := &gossipNode{st: store.New(1)}
	origin.a = New(Config{Interval: 2 * time.Second}, 1, []id.NodeID{2}, origin, origin.listen)
	c.Add(1, origin)
	peer := &gossipNode{st: store.New(2)}
	peer.a = New(Config{}, 2, nil, peer, nil)
	c.Add(2, peer)
	c.Start()
	origin.st.Open(board).WriteLocal(1e9, "w", nil, 1)
	theirs := vv.New()
	theirs.Tick(2, 2e9, 9)
	c.RunFor(30 * time.Second)
	if origin.a.round <= seenRounds+1 {
		t.Fatalf("only %d rounds ran", origin.a.round)
	}
	origin.a.HandleReport(c.Env(1), wire.GossipReport{File: board, Origin: 1, Reporter: 2, Round: 1, VV: theirs})
	if len(origin.reports) != 0 || origin.a.ReportsHeard != 0 {
		t.Fatalf("report on evicted round 1 reached the sink (%d) or was counted (%d)", len(origin.reports), origin.a.ReportsHeard)
	}
	// The current round's digest is still kept: the same report on it is
	// delivered.
	origin.a.HandleReport(c.Env(1), wire.GossipReport{File: board, Origin: 1, Reporter: 2, Round: origin.a.round, VV: theirs})
	if len(origin.reports) != 1 || origin.a.ReportsHeard != 1 {
		t.Fatalf("report on the current round: sink got %d, counted %d; want 1, 1", len(origin.reports), origin.a.ReportsHeard)
	}
}

func TestDigestDeduplication(t *testing.T) {
	gn := &gossipNode{st: store.New(5)}
	gn.a = New(Config{}, 5, []id.NodeID{6}, gn, nil)
	c := simnet.New(simnet.Config{Seed: 1})
	c.Add(5, gn)
	c.Add(6, &gossipNode{st: store.New(6), a: New(Config{}, 6, nil, &gossipNode{st: store.New(6)}, nil)})
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
