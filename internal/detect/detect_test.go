package detect

import (
	"math/rand"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/quantify"
	"idea/internal/simnet"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

const board = id.FileID("board")

// detNode is a minimal node embedding a Detector for standalone tests.
type detNode struct {
	st      *store.Store
	det     *Detector
	results []Result
	replies []wire.DetectReply
	discs   []float64 // bottom levels from discrepancy callbacks
}

func (n *detNode) Start(e env.Env) {}
func (n *detNode) Recv(e env.Env, from id.NodeID, m env.Message) {
	if r, ok := m.(wire.DetectReply); ok {
		n.replies = append(n.replies, r)
	}
	n.det.Recv(e, from, m)
}
func (n *detNode) Timer(e env.Env, key string, data any) {
	n.det.Timer(e, key, data)
}

func buildTop(t *testing.T, writers int, cfg Config) (*simnet.Cluster, map[id.NodeID]*detNode) {
	t.Helper()
	ids := make([]id.NodeID, writers)
	for i := range ids {
		ids[i] = id.NodeID(i + 1)
	}
	mem := overlay.NewStatic(ids, map[id.FileID][]id.NodeID{board: ids})
	c := simnet.New(simnet.Config{Seed: 21, Latency: simnet.Constant(25 * time.Millisecond)})
	nodes := make(map[id.NodeID]*detNode, writers)
	for _, nid := range ids {
		dn := &detNode{st: store.New(nid)}
		dn.det = New(cfg, nid, mem, dn.st, quantify.Default())
		dn.det.OnResult(func(_ env.Env, res Result) { dn.results = append(dn.results, res) })
		dn.det.OnDiscrepancy(func(_ env.Env, _ id.FileID, _, bottom float64, _ wire.GossipReport) {
			dn.discs = append(dn.discs, bottom)
		})
		nodes[nid] = dn
		c.Add(nid, dn)
	}
	c.Start()
	return c, nodes
}

func TestDetectNoPeersSucceedsImmediately(t *testing.T) {
	c, nodes := buildTop(t, 1, Config{})
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		nodes[1].det.Detect(e, board)
	})
	c.RunFor(2 * time.Second)
	if len(nodes[1].results) != 1 || !nodes[1].results[0].OK {
		t.Fatalf("results = %+v", nodes[1].results)
	}
}

func TestDetectIdenticalReplicasSuccess(t *testing.T) {
	c, nodes := buildTop(t, 2, Config{})
	// Node 1 writes; node 2 applies the same update before detection.
	c.CallAt(time.Second, 1, func(e env.Env) {
		u := nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		nodes[2].st.Open(board).Apply(u) // direct injection for the test
		nodes[1].det.Detect(e, board)
	})
	c.RunFor(3 * time.Second)
	res := nodes[1].results
	if len(res) != 1 || !res[0].OK || res[0].Level != 1 {
		t.Fatalf("results = %+v", res)
	}
}

func TestDetectConflictFailsWithLevel(t *testing.T) {
	c, nodes := buildTop(t, 2, Config{})
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 3)
	})
	c.CallAt(time.Second, 2, func(e env.Env) {
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 9)
	})
	c.CallAt(2*time.Second, 1, func(e env.Env) { nodes[1].det.Detect(e, board) })
	c.RunFor(5 * time.Second)
	res := nodes[1].results
	if len(res) != 1 {
		t.Fatalf("want 1 result, got %+v", res)
	}
	r := res[0]
	if r.OK {
		t.Fatal("conflict not detected")
	}
	if r.Level >= 1 || r.Level < 0 {
		t.Fatalf("level = %g", r.Level)
	}
	if r.Triple.Zero() {
		t.Fatal("triple is zero for a conflict")
	}
	if r.Ref != 2 {
		t.Fatalf("reference = %v, want higher-ID node 2", r.Ref)
	}
	if r.Replies != 1 {
		t.Fatalf("replies = %d", r.Replies)
	}
	if nodes[1].det.Conflicts != 1 || nodes[1].det.Detections != 1 {
		t.Fatalf("counters = %d/%d", nodes[1].det.Conflicts, nodes[1].det.Detections)
	}
}

func TestDetectAggregatesWorstPeer(t *testing.T) {
	c, nodes := buildTop(t, 4, Config{})
	// Peers 2..4 each write a different number of conflicting updates.
	for n := 2; n <= 4; n++ {
		nid := id.NodeID(n)
		count := (n - 1) * 3
		c.CallAt(time.Second, nid, func(e env.Env) {
			r := nodes[nid].st.Open(board)
			for i := 0; i < count; i++ {
				r.WriteLocal(e.Stamp(), "w", nil, float64(i))
			}
		})
	}
	c.CallAt(2*time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		nodes[1].det.Detect(e, board)
	})
	c.RunFor(6 * time.Second)
	res := nodes[1].results
	if len(res) != 1 || res[0].OK {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Replies != 3 {
		t.Fatalf("replies = %d, want 3", res[0].Replies)
	}
	// The worst peer is node 4 (9 conflicting updates): level must
	// reflect 10 total order error (9 missing + 1 extra), not node 2's 4.
	q := quantify.Default()
	if res[0].Level > q.Level(vv.Triple{Order: 8}) {
		t.Fatalf("level %g too high; worst peer not aggregated", res[0].Level)
	}
}

func TestDetectTimeoutFinalizesPartial(t *testing.T) {
	c, nodes := buildTop(t, 3, Config{Timeout: 500 * time.Millisecond})
	c.Partition(1, 3) // node 3 will never answer
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		nodes[1].det.Detect(e, board)
	})
	c.RunFor(3 * time.Second)
	res := nodes[1].results
	if len(res) != 1 {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Replies != 1 {
		t.Fatalf("replies = %d, want 1 (node 2 only)", res[0].Replies)
	}
}

func TestDetectionDelayIsRTTScale(t *testing.T) {
	c, nodes := buildTop(t, 4, Config{})
	c.CallAt(time.Second, 2, func(e env.Env) {
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
	})
	c.CallAt(2*time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 2)
		nodes[1].det.Detect(e, board)
	})
	c.RunFor(5 * time.Second)
	res := nodes[1].results
	if len(res) != 1 {
		t.Fatalf("results = %+v", res)
	}
	// One parallel round trip at 25 ms one-way: ~50 ms, well under 100 ms.
	if res[0].Elapsed < 40*time.Millisecond || res[0].Elapsed > 120*time.Millisecond {
		t.Fatalf("detection delay = %v, want ~50ms", res[0].Elapsed)
	}
}

func TestTopVerdictTracksResults(t *testing.T) {
	c, nodes := buildTop(t, 2, Config{})
	if nodes[1].det.TopVerdict(board) != 1 {
		t.Fatal("initial verdict should be 1")
	}
	c.CallAt(time.Second, 2, func(e env.Env) {
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 9)
	})
	c.CallAt(2*time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		nodes[1].det.Detect(e, board)
	})
	c.RunFor(5 * time.Second)
	if v := nodes[1].det.TopVerdict(board); v >= 1 {
		t.Fatalf("verdict = %g, want < 1 after conflict", v)
	}
	nodes[1].det.NoteResolved(board)
	if nodes[1].det.TopVerdict(board) != 1 {
		t.Fatal("NoteResolved did not reset the verdict")
	}
}

func TestDiscrepancyCheck(t *testing.T) {
	_, nodes := buildTop(t, 2, Config{})
	dn := nodes[1]
	// Node 1 advertised three updates of its own; reporter 2 holds one of
	// its own and none of node 1's, and reports all of it.
	adv := vv.New()
	for i := 1; i <= 3; i++ {
		adv.Tick(1, vv.Stamp(i)*1e9, float64(i))
	}
	theirs := vv.New()
	theirs.Tick(2, 4e9, 20)
	rep := wire.GossipReport{File: board, Origin: 1, Reporter: 2, Round: 1, VV: theirs.Above(adv.Counts())}
	q := quantify.Default()
	_, ref := q.RefSel(map[id.NodeID]*vv.Vector{1: adv, 2: theirs})
	_, level := q.Score(adv, ref)
	if level > 0.8 {
		t.Fatalf("level = %g, want room for a far top verdict", level)
	}

	e := envStub{}
	// Close: the top layer said level + 0.02 → silent.
	dn.det.topVerdict[board] = level + 0.02
	dn.det.HandleGossipReport(e, rep, adv)
	if len(dn.discs) != 0 {
		t.Fatal("close bottom verdict raised a discrepancy")
	}
	// Far: the top layer said level + 0.2 → discrepancy at level.
	dn.det.topVerdict[board] = level + 0.2
	dn.det.HandleGossipReport(e, rep, adv)
	if len(dn.discs) != 1 || dn.discs[0] != level {
		t.Fatalf("discs = %v, want [%g]", dn.discs, level)
	}
	// Bottom *better* than top: silent (nothing to roll back).
	dn.det.topVerdict[board] = level - 0.1
	dn.det.HandleGossipReport(e, rep, adv)
	if len(dn.discs) != 1 {
		t.Fatal("better bottom verdict raised a discrepancy")
	}
}

// envStub satisfies env.Env for direct handler invocation in unit tests
// that need no network.
type envStub struct{}

func (envStub) ID() id.NodeID                    { return 1 }
func (envStub) Now() time.Time                   { return time.Unix(0, 0) }
func (envStub) Stamp() vv.Stamp                  { return 0 }
func (envStub) Send(id.NodeID, env.Message)      {}
func (envStub) After(time.Duration, string, any) {}
func (envStub) Rand() *rand.Rand                 { return rand.New(rand.NewSource(1)) }
func (envStub) Logf(string, ...any)              {}
