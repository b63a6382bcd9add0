package detect_test

import (
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/quantify"
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

// verdict is a scored probe: its level, triple and reference node.
type verdict struct {
	level  float64
	triple vv.Triple
	ref    id.NodeID
}

// peerScore scores the writer's whole vector against the peer's replica
// local, as a peer scored probes before the writer did.
func peerScore(q *quantify.Quantifier, self, writer id.NodeID, local, whole *vv.Vector) verdict {
	if vv.Compare(local, whole) == vv.Equal {
		return verdict{level: 1}
	}
	ref, refV := q.RefSel(map[id.NodeID]*vv.Vector{self: local, writer: whole})
	triple, level := q.Score(whole, refV)
	return verdict{level, triple, ref}
}

// worse keeps the worst of a probe's peer scores, as the writer does: a
// score replaces the current one only when its level is lower.
func (v verdict) worse(o verdict) verdict {
	if o.level < v.level {
		return o
	}
	return v
}

// checkVerdicts makes n check the verdicts it reaches against want; a
// probe want does not report (ok false) goes unchecked.
func checkVerdicts(t *testing.T, n *core.Node, want func(token int64) (w verdict, ok bool)) {
	prev := n.SetOnLevel(nil)
	n.SetOnLevel(func(e env.Env, file id.FileID, res detect.Result) {
		w, ok := want(res.Token)
		if got := (verdict{res.Level, res.Triple, res.Ref}); ok && got != w {
			t.Errorf("%v probe %d: writer scored %+v, the whole vectors score %+v", n.ID(), res.Token, got, w)
		}
		if prev != nil {
			prev(e, file, res)
		}
	})
}

// TestProbeShipsOnlyUnseenStamps runs three hint-based writers on one file
// for 300 writes. Every probe ships the writer's counts and no stamps;
// every reply ships, per writer, at most the stamps of the updates the
// peer has and the writer lacked. Every verdict is the one the peers
// reached scoring the writer's whole vector against their replicas.
func TestProbeShipsOnlyUnseenStamps(t *testing.T) {
	ids := cluster.IDs(3)
	// whole[k]: the writer's vector behind probe k; want[k]: the worst
	// whole-vector score its peers give it.
	whole := map[probeKey]*vv.Vector{}
	want := map[probeKey]verdict{}
	var cores map[id.NodeID]*core.Node
	requests, replies, shipped := 0, 0, 0
	onRecv := func(self id.NodeID) func(env.Env, id.NodeID, env.Message) {
		return func(_ env.Env, from id.NodeID, msg env.Message) {
			switch m := msg.(type) {
			case wire.DetectRequest:
				requests++
				k := probeKey{from, m.Token}
				if n := m.VV.WindowStamps(); n != 0 {
					t.Fatalf("%v's probe %d shipped %d stamps, want counts only", from, m.Token, n)
				}
				local := cores[self].Store().Open(m.File).Vector()
				w, ok := want[k]
				if !ok {
					w = verdict{level: 1}
				}
				want[k] = w.worse(peerScore(cores[self].Detector().Quantifier(), self, from, local, whole[k]))
			case wire.DetectReply:
				replies++
				full := whole[probeKey{self, m.Token}]
				for w, e := range m.VV.Entries {
					shipped += len(e.Stamps)
					if limit := max(e.Count-full.Count(w), 0); len(e.Stamps) > limit {
						t.Fatalf("%v's reply to %v shipped %d stamps of writer %v; it has %d updates, the probe %d (want at most %d)",
							from, self, len(e.Stamps), w, e.Count, full.Count(w), limit)
					}
				}
			}
		}
	}
	s, err := cluster.NewSim(cluster.Topology{
		Nodes:     ids,
		TopLayers: map[id.FileID][]id.NodeID{board: ids},
		Hook: func(nid id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			return func(n *core.Node) env.Handler { return &spyNode{Node: n, recv: onRecv(nid)} }
		},
	}, simnet.Config{Seed: 5, Latency: simnet.Constant(25 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cores = s.Nodes
	verdicts, conflicts := 0, 0
	for _, nid := range ids {
		if err := cores[nid].SetHint(board, 0.95); err != nil {
			t.Fatal(err)
		}
		checkVerdicts(t, cores[nid], func(token int64) (verdict, bool) {
			verdicts++
			w, ok := want[probeKey{nid, token}]
			if !ok {
				t.Errorf("%v reached a verdict on probe %d, which no peer received", nid, token)
			}
			if w.level < 1 {
				conflicts++
			}
			return w, true
		})
	}

	const writes = 300
	for i := 0; i < writes; i++ {
		nid := ids[i%len(ids)]
		s.C.CallAtFile(time.Duration(i+1)*40*time.Millisecond, nid, board, func(e env.Env) {
			spy := &spyEnv{Env: e}
			cores[nid].Write(spy, board, "w", nil, float64(i))
			if len(spy.sent) != len(ids)-1 {
				t.Fatalf("write %d sent %d probes, want %d", i, len(spy.sent), len(ids)-1)
			}
			local := cores[nid].Store().Open(board).Vector()
			if req := spy.sent[0]; vv.Compare(req.VV, local) != vv.Equal {
				t.Fatalf("write %d: %v probed with counts %v, its replica holds %v", i, nid, req.VV, local)
			}
			whole[probeKey{nid, spy.sent[0].Token}] = local
		})
	}
	s.C.RunUntil(time.Duration(writes+100) * 40 * time.Millisecond)

	t.Logf("%d probes, %d replies shipping %d stamps; %d verdicts, %d conflicts", requests, replies, shipped, verdicts, conflicts)
	if requests != writes*(len(ids)-1) || replies != requests || verdicts != writes {
		t.Fatalf("%d probes, %d replies, %d verdicts; want %d, %d, %d",
			requests, replies, verdicts, writes*(len(ids)-1), requests, writes)
	}
	if conflicts < writes/10 {
		t.Fatalf("only %d of %d verdicts were conflicts; the scoring went unchecked", conflicts, writes)
	}
}

// TestRejoinedPeerScoresWholeProbe: a peer that dies forgets what it had.
// Writer 2 probes peer 3, which holds 10 of its updates; node 1, the seed
// and not a top-layer member, holds only the first 5. Peer 3 crashes and
// rejoins, bootstrapping those 5 from the seed. The writer's first verdict
// after the rejoin must be the whole-vector score: nothing the peer said
// before its crash may shape how the writer reads its reply.
func TestRejoinedPeerScoresWholeProbe(t *testing.T) {
	const writer, peer, seed = id.NodeID(2), id.NodeID(3), id.NodeID(1)
	var whole *vv.Vector // writer's vector behind its probe after the rejoin
	var token int64
	var want *verdict
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
			w := verdict{level: 1}.worse(peerScore(n.Detector().Quantifier(), self, from, local, whole))
			want = &w
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
	checked := false
	checkVerdicts(t, s.Nodes[writer], func(tok int64) (verdict, bool) {
		if whole == nil || tok != token {
			return verdict{}, false // before the rejoin: unchecked
		}
		if want == nil {
			t.Fatal("the writer reached its verdict before the rejoined peer saw the probe")
		}
		if want.level >= 1 {
			t.Fatalf("the whole vectors score %+v: no conflict to check", *want)
		}
		checked = true
		return *want, true
	})
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
		spy := &spyEnv{Env: e}
		s.Nodes[writer].Write(spy, board, "w", nil, 1)
		if len(spy.sent) != 1 {
			t.Fatalf("the write sent %d probes, want 1", len(spy.sent))
		}
		token = spy.sent[0].Token
		whole = s.Nodes[writer].Store().Open(board).Vector()
	})
	c.RunUntil(40 * time.Second)
	if !checked {
		t.Fatal("the writer reached no verdict on its probe after the rejoin")
	}
}

// TestWriterQuantifierDecidesVerdict: a node's Table 1 settings govern its
// own top-layer verdicts. Node 1 weighs only order error; node 2 keeps the
// default weights. Node 1's verdict on a conflicting write is the level
// its own weights give the triple, not the default one.
func TestWriterQuantifierDecidesVerdict(t *testing.T) {
	ids := cluster.IDs(2)
	s, err := cluster.NewSim(cluster.Topology{
		Nodes:     ids,
		TopLayers: map[id.FileID][]id.NodeID{board: ids},
	}, simnet.Config{Seed: 7, Latency: simnet.Constant(25 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n1 := s.Nodes[1]
	if err := n1.SetWeight(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	var results []detect.Result
	n1.SetOnLevel(func(_ env.Env, _ id.FileID, res detect.Result) { results = append(results, res) })
	s.C.CallAtFile(time.Second, 2, board, func(e env.Env) { s.Nodes[2].Write(e, board, "w", nil, 20) })
	s.C.CallAtFile(time.Second+5*time.Millisecond, 1, board, func(e env.Env) { n1.Write(e, board, "w", nil, 1) })
	s.C.RunFor(3 * time.Second)
	if len(results) == 0 || results[0].OK {
		t.Fatalf("node 1's verdicts %+v; want a conflict first", results)
	}
	res := results[0]
	own, def := n1.Quantifier().Level(res.Triple), quantify.Default().Level(res.Triple)
	if own == def {
		t.Fatalf("triple %v scores %g under both weightings; the test tells nothing", res.Triple, own)
	}
	if res.Level != own {
		t.Fatalf("node 1's verdict is %g; its own weights give %g, the defaults %g", res.Level, own, def)
	}
}
