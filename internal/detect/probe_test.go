package detect_test

import (
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/resolve"
	"idea/internal/simnet"
	"idea/internal/vv"
	"idea/internal/wire"
)

const board = id.FileID("board")

// spyEnv records the detection requests a call sends.
type spyEnv struct {
	env.Env
	sent []wire.DetectRequest
}

func (e *spyEnv) Send(to id.NodeID, msg env.Message) {
	if m, ok := msg.(wire.DetectRequest); ok {
		e.sent = append(e.sent, m)
	}
	e.Env.Send(to, msg)
}

// spyNode runs a core node, first handing every message it receives to
// recv.
type spyNode struct {
	*core.Node
	recv func(e env.Env, from id.NodeID, msg env.Message)
}

func (s *spyNode) Recv(e env.Env, from id.NodeID, msg env.Message) {
	s.recv(e, from, msg)
	s.Node.Recv(e, from, msg)
}

// probeKey names one probe: its writer and token.
type probeKey struct {
	writer id.NodeID
	token  int64
}

// TestProbeShipsOnlyUnseenStamps runs three hint-based writers on one file
// for 300 writes. Until every peer has replied to a probe of the file, a
// probe ships the writer's whole stamp windows; after that, per writer at
// most the updates the slowest peer had not reported, plus one. Every
// peer scores the trimmed probe exactly as it would the whole vector.
func TestProbeShipsOnlyUnseenStamps(t *testing.T) {
	ids := cluster.IDs(3)
	// have[n][p]: the counts p last reported to n, as n's detector saw
	// them; whole[k]: the untrimmed vector behind probe k.
	have := map[id.NodeID]map[id.NodeID]map[id.NodeID]int{}
	whole := map[probeKey]*vv.Vector{}
	var cores map[id.NodeID]*core.Node
	scored, exact := 0, 0
	onRecv := func(self id.NodeID) func(env.Env, id.NodeID, env.Message) {
		return func(_ env.Env, from id.NodeID, msg env.Message) {
			switch m := msg.(type) {
			case wire.DetectReply:
				have[self][from] = m.Have
			case wire.DetectRequest:
				full := whole[probeKey{from, m.Token}]
				local := cores[self].Store().Open(m.File).Vector()
				if vv.Compare(local, m.VV) == vv.Equal {
					return
				}
				// As the peer's detector scores it (HandleRequest).
				score := func(v *vv.Vector) (vv.Triple, float64) {
					q := cores[self].Detector().Quantifier()
					_, ref := q.RefSel(map[id.NodeID]*vv.Vector{self: local, from: v})
					return q.Score(v, ref)
				}
				gt, gl := score(m.VV)
				wt, wl := score(full)
				scored++
				bounded := true
				for w, e := range m.VV.Entries {
					if e.Base > full.Entries[w].Base && e.Base+1 > local.Count(w) {
						bounded = false // this peer lost updates it reported
					}
				}
				switch {
				case bounded && (gt != wt || gl != wl):
					t.Fatalf("n%v scores n%v's probe %d trimmed as %v %g, whole as %v %g",
						self, from, m.Token, gt, gl, wt, wl)
				case gt.Staleness < wt.Staleness:
					t.Fatalf("n%v under-reports staleness of n%v's trimmed probe: %v < %v", self, from, gt, wt)
				case bounded:
					exact++
				}
			}
		}
	}
	s, err := cluster.NewSim(cluster.Topology{
		Nodes:     ids,
		TopLayers: map[id.FileID][]id.NodeID{board: ids},
		Hook: func(nid id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			have[nid] = map[id.NodeID]map[id.NodeID]int{}
			return func(n *core.Node) env.Handler { return &spyNode{Node: n, recv: onRecv(nid)} }
		},
	}, simnet.Config{Seed: 5, Latency: simnet.Constant(25 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cores = s.Nodes
	for _, nid := range ids {
		if err := cores[nid].SetHint(board, 0.95); err != nil {
			t.Fatal(err)
		}
	}

	const writes = 300
	shipped, windows, trimmed, firsts := 0, 0, 0, 0
	for i := 0; i < writes; i++ {
		nid := ids[i%len(ids)]
		s.C.CallAtFile(time.Duration(i+1)*40*time.Millisecond, nid, board, func(e env.Env) {
			spy := &spyEnv{Env: e}
			cores[nid].Write(spy, board, "w", nil, float64(i))
			local := cores[nid].Store().Open(board).Vector()
			reported := true
			for _, p := range ids {
				if _, ok := have[nid][p]; p != nid && !ok {
					reported = false
				}
			}
			if len(spy.sent) != len(ids)-1 {
				t.Fatalf("write %d sent %d probes, want %d", i, len(spy.sent), len(ids)-1)
			}
			req := spy.sent[0]
			whole[probeKey{nid, req.Token}] = local
			for w, e := range req.VV.Entries {
				full := local.Entries[w]
				shipped += len(e.Stamps)
				windows += len(full.Stamps)
				if !reported {
					if e.Base != full.Base || len(e.Stamps) != len(full.Stamps) {
						t.Fatalf("write %d: n%v probed before every peer replied, yet shipped %d of writer %v's %d stamps",
							i, nid, len(e.Stamps), w, len(full.Stamps))
					}
					continue
				}
				slowest := e.Count
				for _, p := range ids {
					if p != nid {
						slowest = min(slowest, have[nid][p][w])
					}
				}
				if limit := e.Count - slowest + 1; len(e.Stamps) > limit {
					t.Fatalf("write %d: n%v shipped %d stamps of writer %v, whose slowest peer reported %d of %d (want at most %d)",
						i, nid, len(e.Stamps), w, slowest, e.Count, limit)
				}
				// The last update the slowest peer has ends its common
				// prefix with the writer: Formula 1 reads its stamp.
				if slowest > 0 && e.Base > max(slowest-1, full.Base) {
					t.Fatalf("write %d: n%v dropped writer %v's update %d, the last its slowest peer reported",
						i, nid, w, slowest)
				}
			}
			if reported {
				trimmed++
			} else {
				firsts++
			}
		})
	}
	s.C.RunUntil(time.Duration(writes+100) * 40 * time.Millisecond)

	t.Logf("%d probes whole, %d trimmed; %d of %d stamps in window shipped; %d of %d peer scores checked exact",
		firsts, trimmed, shipped, windows, exact, scored)
	if firsts < len(ids) || trimmed < writes*9/10 {
		t.Fatalf("%d probes shipped whole windows and %d were trimmed; want the first of each writer whole and nearly all trimmed", firsts, trimmed)
	}
	if shipped*4 > windows {
		t.Fatalf("trimmed probes shipped %d of %d window stamps; want under a quarter", shipped, windows)
	}
	if exact < scored*9/10 || scored == 0 {
		t.Fatalf("only %d of %d peer scores ran with a true floor", exact, scored)
	}
}

// TestRejoinedPeerScoresWholeProbe: a peer that dies forgets what it had,
// so its old counts must not trim the writer's next probe. Writer 2
// probes peer 3, which reports 10 of its updates; node 1, the seed and
// not a top-layer member, holds only the first 5. Peer 3 crashes and
// rejoins, bootstrapping those 5 from the seed. On the first probe after
// the rejoin it must score the vector exactly as the untrimmed one: had
// writer 2 kept trimming below 10, the end of their common prefix (update
// 5) would be missing and staleness would jump.
func TestRejoinedPeerScoresWholeProbe(t *testing.T) {
	const writer, peer, seed = id.NodeID(2), id.NodeID(3), id.NodeID(1)
	var whole *vv.Vector // writer's vector behind its probe after the rejoin
	checked := false
	var s *cluster.Sim
	onRecv := func(self id.NodeID) func(env.Env, id.NodeID, env.Message) {
		return func(_ env.Env, from id.NodeID, msg env.Message) {
			m, ok := msg.(wire.DetectRequest)
			if !ok || self != peer || whole == nil {
				return
			}
			n := s.Nodes[self]
			local := n.Store().Open(m.File).Vector()
			if got := local.Count(writer); got != 5 {
				t.Fatalf("rejoined peer holds %d of the writer's updates, want the seed's 5", got)
			}
			score := func(v *vv.Vector) (vv.Triple, float64) {
				q := n.Detector().Quantifier()
				_, ref := q.RefSel(map[id.NodeID]*vv.Vector{self: local, from: v})
				return q.Score(v, ref)
			}
			gt, gl := score(m.VV)
			wt, wl := score(whole)
			if gt != wt || gl != wl {
				t.Fatalf("rejoined peer scores the probe %v %g, the untrimmed vector %v %g", gt, gl, wt, wl)
			}
			checked = true
		}
	}
	var err error
	s, err = cluster.NewSim(cluster.Topology{
		Nodes:     cluster.IDs(3),
		TopLayers: map[id.FileID][]id.NodeID{board: {writer, peer}},
		Swim:      &membership.Config{},
		Hook: func(nid id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Resolve.Policy = resolve.MergeAll
			o.DisableGossip = true
			return func(n *core.Node) env.Handler { return &spyNode{Node: n, recv: onRecv(nid)} }
		},
	}, simnet.Config{Seed: 3, Latency: simnet.Constant(25 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := s.C
	write := func(at time.Duration) {
		c.CallAtFile(at, writer, board, func(e env.Env) {
			s.Nodes[writer].Write(e, board, "w", nil, 1)
		})
	}
	resolveAt := func(at time.Duration, nid id.NodeID) {
		c.CallAtFile(at, nid, board, func(e env.Env) { s.Nodes[nid].DemandActiveResolution(e, board) })
	}
	for i := 1; i <= 5; i++ {
		write(time.Duration(i) * time.Second)
	}
	resolveAt(6*time.Second, seed) // the seed and the peer pull updates 1-5
	for i := 8; i <= 12; i++ {
		write(time.Duration(i) * time.Second)
	}
	resolveAt(13*time.Second, writer) // the peer, not the seed, gets 6-10
	write(14 * time.Second)           // the peer replies: it has 10
	c.CrashAt(15*time.Second, peer)
	mk, err := s.Factory(peer)
	if err != nil {
		t.Fatal(err)
	}
	c.AddAt(25*time.Second, peer, mk)
	c.CallAtFile(35*time.Second, writer, board, func(e env.Env) {
		if _, done := s.Nodes[peer].JoinCatchup(); !done {
			t.Fatal("peer has not finished its bootstrap")
		}
		s.Nodes[writer].Write(e, board, "w", nil, 1)
		whole = s.Nodes[writer].Store().Open(board).Vector()
	})
	c.RunUntil(40 * time.Second)
	if !checked {
		t.Fatal("the rejoined peer never received the writer's probe")
	}
}
