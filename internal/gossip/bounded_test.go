package gossip

import (
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Tests for the bounded-state fixes: seen-map eviction, no echo back to
// the digest's sender, counts-only digests, and stability-frontier
// learning.

func TestSeenMapEvicted(t *testing.T) {
	c, nodes := buildCluster(t, 4, Config{Interval: 2 * time.Second}, 21)
	for _, gn := range nodes {
		gn.st.Open(board).WriteLocal(1e9, "w", nil, 1)
	}
	c.RunFor(5 * time.Minute)
	// 150 rounds × 4 origins have flowed; without eviction the dedup map
	// would hold hundreds of entries. With a seenRounds retention it must
	// stay within a few rounds' worth of digests.
	for nid, gn := range nodes {
		if got := len(gn.a.seen); got > 4*2*(seenRounds+1) {
			t.Fatalf("node %v seen map grew to %d entries", nid, got)
		}
		advertised := 0
		for _, s := range gn.a.rounds {
			advertised += len(s.advertised)
		}
		if advertised > seenRounds+1 {
			t.Fatalf("node %v keeps %d advertised vectors", nid, advertised)
		}
	}
}

func TestForwardExcludesSender(t *testing.T) {
	// Node 5's only peer is node 6 — the node the digest arrives from.
	// Forwarding must not echo it straight back, so nothing is sent.
	gn := &gossipNode{st: store.New(5)}
	gn.a = New(Config{}, 5, []id.NodeID{6}, gn, nil)
	c := simnet.New(simnet.Config{Seed: 3})
	c.Add(5, gn)
	peer := &gossipNode{st: store.New(6)}
	peer.a = New(Config{}, 6, []id.NodeID{5}, peer, nil)
	c.Add(6, peer)
	c.Start()

	other := vv.New()
	other.Tick(7, 2e9, 9)
	d := wire.GossipDigest{File: board, Origin: 7, Round: 1, TTL: 5, VV: other}
	c.CallAt(time.Second, 5, func(e env.Env) { gn.a.HandleDigest(e, 6, d) })
	c.RunFor(5 * time.Second)
	if got := c.Stats().Count("gossip.digest"); got != 0 {
		t.Fatalf("digest echoed back to its sender: %d sends", got)
	}
}

func TestForwardStillReachesThirdParties(t *testing.T) {
	// With another eligible peer besides the sender, the forward must go
	// there (exclusion narrows the choice, not the fanout).
	gn := &gossipNode{st: store.New(5)}
	gn.a = New(Config{Fanout: 1}, 5, []id.NodeID{6, 8}, gn, nil)
	c := simnet.New(simnet.Config{Seed: 3})
	c.Add(5, gn)
	for _, nid := range []id.NodeID{6, 8} {
		p := &gossipNode{st: store.New(nid)}
		p.a = New(Config{}, nid, nil, p, nil)
		c.Add(nid, p)
	}
	c.Start()

	other := vv.New()
	other.Tick(7, 2e9, 9)
	d := wire.GossipDigest{File: board, Origin: 7, Round: 1, TTL: 5, VV: other}
	c.CallAt(time.Second, 5, func(e env.Env) { gn.a.HandleDigest(e, 6, d) })
	c.RunFor(5 * time.Second)
	if got := c.Stats().Count("gossip.digest"); got != 1 {
		t.Fatalf("forwards = %d, want exactly 1 (to node 8)", got)
	}
}

func TestDigestsShipCountsOnly(t *testing.T) {
	c := simnet.New(simnet.Config{Seed: 5})
	sender := &gossipNode{st: store.New(1)}
	sender.a = New(Config{Interval: 2 * time.Second}, 1, []id.NodeID{2}, sender, nil)
	c.Add(1, sender)
	recv := &gossipNode{st: store.New(2)}
	recv.a = New(Config{Interval: 2 * time.Second}, 2, []id.NodeID{1}, recv, nil)
	c.Add(2, recv)
	c.Start()
	for i := 0; i < 200; i++ {
		sender.st.Open(board).WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 1)
	}
	c.RunFor(30 * time.Second)
	if len(recv.digests) == 0 {
		t.Fatal("no digest observed")
	}
	for _, d := range recv.digests {
		if d.VV.Count(1) != 200 {
			t.Fatalf("digest count = %d, want exact 200", d.VV.Count(1))
		}
		if got := d.VV.WindowStamps(); got != 0 {
			t.Fatalf("digest ships %d stamps, want counts only", got)
		}
	}
}

func TestFrontierUsesRollbackFloorNotRawCounts(t *testing.T) {
	// A digest advertising Stable (the origin's rollback floor) below its
	// raw vector counts must bound the frontier by the floor — otherwise
	// a later rollback on that peer could re-need pruned updates.
	gn := &gossipNode{st: store.New(1)}
	gn.a = New(Config{Interval: 2 * time.Second}, 1, []id.NodeID{2}, gn, nil)
	var got []map[id.NodeID]int
	gn.a.OnFrontier(func(_ env.Env, f id.FileID, stable map[id.NodeID]int) {
		got = append(got, stable)
	})
	c := simnet.New(simnet.Config{Seed: 2})
	c.Add(1, gn)
	p := &gossipNode{st: store.New(2)}
	p.a = New(Config{}, 2, nil, p, nil)
	c.Add(2, p)
	c.Start()

	rep := gn.st.Open(board)
	for i := 0; i < 10; i++ {
		rep.Apply(wire.Update{File: board, Writer: 9, Seq: i + 1, At: vv.Stamp(i+1) * 1e9})
	}
	full := vv.New()
	for i := 0; i < 10; i++ {
		full.Tick(9, vv.Stamp(i+1)*1e9, 0)
	}
	c.CallAt(time.Second, 1, func(e env.Env) {
		gn.a.HandleDigest(e, 2, wire.GossipDigest{
			File: board, Origin: 2, Round: 1, TTL: 1,
			VV:     full,                    // raw counts say 10
			Stable: map[id.NodeID]int{9: 3}, // rollback floor says 3
		})
	})
	c.RunFor(20 * time.Second)
	if len(got) == 0 {
		t.Fatal("no frontier learned")
	}
	if f := got[len(got)-1][9]; f != 3 {
		t.Fatalf("frontier = %d, want rollback floor 3", f)
	}
}

func TestFrontierFiresOnlyOnAdvance(t *testing.T) {
	gn := &gossipNode{st: store.New(1)}
	gn.a = New(Config{Interval: 2 * time.Second}, 1, []id.NodeID{2}, gn, nil)
	fired := 0
	gn.a.OnFrontier(func(_ env.Env, _ id.FileID, _ map[id.NodeID]int) { fired++ })
	c := simnet.New(simnet.Config{Seed: 2})
	c.Add(1, gn)
	p := &gossipNode{st: store.New(2)}
	p.a = New(Config{}, 2, nil, p, nil)
	c.Add(2, p)
	c.Start()

	rep := gn.st.Open(board)
	for i := 0; i < 5; i++ {
		rep.Apply(wire.Update{File: board, Writer: 9, Seq: i + 1, At: vv.Stamp(i+1) * 1e9})
	}
	v := vv.New()
	for i := 0; i < 5; i++ {
		v.Tick(9, vv.Stamp(i+1)*1e9, 0)
	}
	c.CallAt(time.Second, 1, func(e env.Env) {
		gn.a.HandleDigest(e, 2, wire.GossipDigest{File: board, Origin: 2, Round: 1, TTL: 1, VV: v})
	})
	// Many rounds pass with no progress: the callback must fire once,
	// not once per round.
	c.RunFor(60 * time.Second)
	if fired != 1 {
		t.Fatalf("frontier fired %d times with no advance, want 1", fired)
	}
}

func TestFrontierLearnedFromAllPeers(t *testing.T) {
	// An agent with peers {2,3}: after hearing digests from both, a round
	// produces the per-writer minimum as the stability frontier.
	gn := &gossipNode{st: store.New(1)}
	gn.a = New(Config{Interval: 2 * time.Second}, 1, []id.NodeID{2, 3}, gn, nil)
	var frontiers []map[id.NodeID]int
	gn.a.OnFrontier(func(_ env.Env, f id.FileID, stable map[id.NodeID]int) {
		if f == board {
			frontiers = append(frontiers, stable)
		}
	})
	c := simnet.New(simnet.Config{Seed: 11})
	c.Add(1, gn)
	for _, nid := range []id.NodeID{2, 3} {
		p := &gossipNode{st: store.New(nid)}
		p.a = New(Config{}, nid, nil, p, nil)
		c.Add(nid, p)
	}
	c.Start()

	// Local replica holds 10 of writer 9's updates.
	rep := gn.st.Open(board)
	for i := 0; i < 10; i++ {
		rep.Apply(wire.Update{File: board, Writer: 9, Seq: i + 1, At: vv.Stamp(i+1) * 1e9})
	}
	mkv := func(count int) *vv.Vector {
		v := vv.New()
		for i := 0; i < count; i++ {
			v.Tick(9, vv.Stamp(i+1)*1e9, 0)
		}
		return v
	}
	c.CallAt(time.Second, 1, func(e env.Env) {
		gn.a.HandleDigest(e, 2, wire.GossipDigest{File: board, Origin: 2, Round: 1, TTL: 1, VV: mkv(7)})
	})
	c.RunFor(2 * time.Second)
	if len(frontiers) != 0 {
		t.Fatal("frontier learned before hearing from every peer")
	}
	c.CallAt(3*time.Second, 1, func(e env.Env) {
		gn.a.HandleDigest(e, 3, wire.GossipDigest{File: board, Origin: 3, Round: 1, TTL: 1, VV: mkv(4)})
	})
	c.RunFor(30 * time.Second)
	if len(frontiers) == 0 {
		t.Fatal("no frontier learned after hearing from all peers")
	}
	if got := frontiers[len(frontiers)-1][9]; got != 4 {
		t.Fatalf("frontier for writer 9 = %d, want min 4", got)
	}
}
