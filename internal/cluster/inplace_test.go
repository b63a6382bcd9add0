package cluster_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
	"idea/internal/vv"
	"idea/internal/wire"
)

// vecPrint renders everything a vector holds, stamps as integers.
func vecPrint(v *vv.Vector) string {
	if v == nil {
		return "<nil>"
	}
	s := fmt.Sprint(v.Meta, v.Err)
	for w, e := range v.Entries {
		s += fmt.Sprint(" ", w, e)
	}
	return s
}

// msgPrint renders what a sent message carries that a replica could share
// with it: the probe's and the reply's vectors, the digest's vector and
// rollback floor. Other kinds render empty.
func msgPrint(m env.Message) string {
	switch m := m.(type) {
	case wire.DetectRequest:
		return vecPrint(m.VV)
	case wire.DetectReply:
		return vecPrint(m.VV)
	case wire.GossipDigest:
		return vecPrint(m.VV) + fmt.Sprint(m.Stable)
	case wire.DigestBatch:
		var b strings.Builder
		for _, d := range m.Digests {
			b.WriteString(msgPrint(d))
		}
		return b.String()
	}
	return ""
}

// sentMsg is one message as sent and as rendered at send time.
type sentMsg struct {
	msg  env.Message
	what string
}

// recordEnv records every message its node sends.
type recordEnv struct {
	env.Env
	sent *[]sentMsg
}

func (e recordEnv) Send(to id.NodeID, msg env.Message) {
	if p := msgPrint(msg); p != "" {
		*e.sent = append(*e.sent, sentMsg{msg, p})
	}
	e.Env.Send(to, msg)
}

// inPlaceNode runs a core node behind a recordEnv and checks that the
// handlers reading the replica's vector in place leave it unchanged.
type inPlaceNode struct {
	*core.Node
	t    *testing.T
	sent *[]sentMsg
	// handled counts the requests, digests and gossip rounds checked.
	handled map[string]int
}

func (n *inPlaceNode) vectors() string {
	var b strings.Builder
	for _, f := range n.Store().Files() {
		b.WriteString(vecPrint(n.Store().Open(f).LiveVector()))
	}
	return b.String()
}

func (n *inPlaceNode) Recv(e env.Env, from id.NodeID, msg env.Message) {
	var before string
	switch msg.(type) {
	case wire.DetectRequest, wire.GossipDigest:
		before = n.vectors()
	}
	n.Node.Recv(recordEnv{e, n.sent}, from, msg)
	if before != "" {
		n.handled[msg.Kind()]++
		if after := n.vectors(); after != before {
			n.t.Errorf("%v: handling %s from %v changed the replica vector:\n%s\n→ %s", n.ID(), msg.Kind(), from, before, after)
		}
	}
}

func (n *inPlaceNode) Timer(e env.Env, key string, data any) {
	before := ""
	if key == "gossip.round" {
		before = n.vectors()
	}
	n.Node.Timer(recordEnv{e, n.sent}, key, data)
	if before != "" {
		n.handled[key]++
		if after := n.vectors(); after != before {
			n.t.Errorf("%v: a gossip round changed the replica vector:\n%s\n→ %s", n.ID(), before, after)
		}
	}
}

// TestHandlersReadVectorsInPlace runs three writers on one file with
// gossip on. The detection and gossip handlers read the replica's own
// vector (store.Replica.LiveVector) instead of a copy, so: they must leave
// it unchanged, and no message they sent — probe and reply vectors,
// digest vectors and floors — may change when the replica later ticks,
// adopts an invalidating image or rolls back. Rolling back to a checkpoint
// whose vector was refilled from a dropped one restores the checkpoint-time
// vector exactly, and a steady checkpoint/drop cycle allocates nothing.
func TestHandlersReadVectorsInPlace(t *testing.T) {
	ids := cluster.IDs(3)
	var sent []sentMsg
	handled := map[string]int{}
	s, err := cluster.NewSim(cluster.Topology{
		Nodes:     ids,
		TopLayers: map[id.FileID][]id.NodeID{"board": ids},
		Hook: func(id.NodeID, *core.Options) func(*core.Node) env.Handler {
			return func(n *core.Node) env.Handler {
				return &inPlaceNode{Node: n, t: t, sent: &sent, handled: handled}
			}
		},
	}, simnet.Config{Seed: 11, Latency: simnet.Constant(30 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const writes = 150
	for i := 0; i < writes; i++ {
		nid := ids[i%len(ids)]
		s.C.CallAtFile(time.Duration(i+1)*100*time.Millisecond, nid, "board", func(e env.Env) {
			s.Nodes[nid].Write(recordEnv{e, &sent}, "board", "w", []byte{byte(i)}, float64(i))
		})
	}
	s.C.RunFor(60 * time.Second)
	for _, k := range []string{"detect.req", "gossip.digest", "gossip.round"} {
		if handled[k] == 0 {
			t.Fatalf("no %s was handled: %v", k, handled)
		}
	}
	kinds := map[string]int{}
	for _, m := range sent {
		kinds[m.msg.Kind()]++
	}
	for _, k := range []string{"detect.req", "detect.rep"} {
		if kinds[k] == 0 {
			t.Fatalf("no %s was sent: %v", k, kinds)
		}
	}
	if kinds["gossip.digest"]+kinds["gossip.digest_batch"] == 0 {
		t.Fatalf("no digest was sent: %v", kinds)
	}

	for _, nid := range ids {
		rep := s.Nodes[nid].Store().Open("board")
		// A refilled checkpoint restores its vector exactly, across enough
		// ticks to compact the live windows.
		rep.Checkpoint(-1)
		rep.DropCheckpoint(-1)
		rep.Checkpoint(-2)
		want := vecPrint(rep.LiveVector())
		for i := 0; i < 2*vv.DefaultWindow+3; i++ {
			rep.WriteLocal(vv.Stamp(1e18+i), "tick", nil, float64(i))
		}
		if _, err := rep.Rollback(-2); err != nil {
			t.Fatal(err)
		}
		if got := vecPrint(rep.LiveVector()); got != want {
			t.Fatalf("%v: rollback to a refilled checkpoint restored\n%s\nwant\n%s", nid, got, want)
		}
		// Tick, then adopt an image one update short per writer.
		rep.WriteLocal(vv.Stamp(2e18), "tick", nil, 0)
		img := rep.Counts()
		for _, w := range img.Writers() {
			img.TruncateWriter(w, img.Count(w)-1)
		}
		rep.AdoptImage(img, nil, true)

		// A steady checkpoint-per-verdict cycle reuses the dropped vector.
		rep.Checkpoint(-3)
		rep.DropCheckpoint(-3)
		if n := testing.AllocsPerRun(100, func() {
			rep.Checkpoint(-4)
			rep.DropCheckpoint(-4)
		}); n != 0 {
			t.Fatalf("%v: Checkpoint+DropCheckpoint allocates %v times per cycle, want 0", nid, n)
		}
	}
	for i, m := range sent {
		if got := msgPrint(m.msg); got != m.what {
			t.Fatalf("sent message %d (%s) changed after send:\n%s\n→ %s", i, m.msg.Kind(), m.what, got)
		}
	}
}
