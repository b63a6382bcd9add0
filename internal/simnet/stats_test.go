package simnet

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

// sink accepts every message and counts deliveries.
type sink struct{ got int }

func (h *sink) Start(env.Env)                        {}
func (h *sink) Recv(env.Env, id.NodeID, env.Message) { h.got++ }
func (h *sink) Timer(env.Env, string, any)           {}

func digest(f string, round int, v *vv.Vector) wire.GossipDigest {
	return wire.GossipDigest{File: id.FileID(f), Origin: 1, Round: round, TTL: 3, VV: v,
		Stable: map[id.NodeID]int{1: round, 2: round / 2}}
}

// TestBytesExactPerKind sends a known mix through Env(n).Send — plain
// messages, digest batches the cluster splits on delivery, sends a
// partition drops, and a message the codec does not know — and checks
// that every reader equals the totals computed here from the encodings
// themselves (the nominal 64 bytes for the unknown message), both
// mid-run and at the end.
func TestBytesExactPerKind(t *testing.T) {
	c := New(Config{Seed: 7, Latency: Constant(time.Millisecond)})
	hs := map[id.NodeID]*sink{1: {}, 2: {}, 3: {}}
	for n, h := range hs {
		c.Add(n, h)
	}
	c.Start()
	c.Partition(1, 3)

	counts, bytes := map[string]int{}, map[string]int{}
	dropped, delivered := 0, 0
	v := vv.New()
	send := func(from, to id.NodeID, m env.Message) {
		c.Env(from).Send(to, m)
		counts[m.Kind()]++
		if frame, err := wire.Encode(wire.Envelope{From: from, To: to, Msg: m}); err == nil {
			bytes[m.Kind()] += len(frame)
		} else {
			bytes[m.Kind()] += 64
		}
		switch {
		case from == 1 && to == 3 || from == 3 && to == 1:
			dropped++
		default:
			if b, ok := m.(wire.DigestBatch); ok {
				delivered += len(b.Digests)
			} else {
				delivered++
			}
		}
	}
	check := func(when string) {
		t.Helper()
		total, gossip := 0, 0
		for k, b := range bytes {
			total += b
			if strings.HasPrefix(k, "gossip.") {
				gossip += b
			}
		}
		if got := c.Stats().Bytes(); got != total {
			t.Fatalf("%s: Bytes = %d, want %d", when, got, total)
		}
		if got := c.Stats().BytesMatching("gossip."); got != gossip {
			t.Fatalf("%s: BytesMatching(gossip.) = %d, want %d", when, got, gossip)
		}
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		var want strings.Builder
		for _, k := range kinds {
			fmt.Fprintf(&want, "%-22s %6d msgs %9d B\n", k, counts[k], bytes[k])
		}
		if dropped > 0 {
			fmt.Fprintf(&want, "%-22s %6d msgs\n", "(dropped)", dropped)
		}
		if got := c.Stats().String(); got != want.String() {
			t.Fatalf("%s: String =\n%s\nwant\n%s", when, got, want.String())
		}
	}

	const n = 805
	for i := 0; i < n; i++ {
		v.Tick(id.NodeID(i%4+1), vv.Stamp(i)*1e6, float64(i))
		from := id.NodeID(i%3 + 1)
		to := id.NodeID((i+1)%3 + 1)
		switch i % 5 {
		case 0:
			send(from, to, wire.DetectRequest{File: "f", Token: int64(i), VV: v.Clone()})
		case 1:
			send(from, to, digest("g", i, v.Counts()))
		case 2:
			send(from, to, wire.DigestBatch{Digests: []wire.GossipDigest{digest("a", i, v.Counts()), digest("b", i, v.Counts())}})
		case 3:
			send(from, to, wire.InformAck{File: "f", Token: int64(i)})
		case 4:
			send(from, to, ping{N: i})
		}
		if i == 266 {
			check("mid-run")
		}
	}
	check("end")
	if got := c.Stats().Dropped(); got != dropped || dropped == 0 {
		t.Fatalf("Dropped = %d, want %d (> 0)", got, dropped)
	}
	c.RunFor(time.Second)
	got := 0
	for _, h := range hs {
		got += h.got
	}
	if got != delivered {
		t.Fatalf("delivered %d messages, want %d (batches split)", got, delivered)
	}
	check("after delivery")
}

// TestRecordAllocatesNothing pins per-send accounting: counting and sizing
// a wire message takes no allocation.
func TestRecordAllocatesNothing(t *testing.T) {
	s := NewStats()
	v := vv.New()
	for w := id.NodeID(1); w <= 12; w++ {
		v.Tick(w, vv.Stamp(w)*1e9, 1)
	}
	envs := []wire.Envelope{
		{From: 1, To: 2, Msg: wire.DetectRequest{File: "f", Token: 9, VV: v}},
		{From: 2, To: 3, Msg: digest("f", 4, v.Counts())},
		{From: 3, To: 1, Msg: wire.InformAck{File: "f", Token: 9}},
	}
	for _, e := range envs {
		s.record(e)
	}
	if allocs := testing.AllocsPerRun(500, func() {
		for _, e := range envs {
			s.record(e)
		}
	}); allocs != 0 {
		t.Fatalf("per-send accounting = %v allocs, want 0", allocs)
	}
}
