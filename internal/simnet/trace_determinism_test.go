package simnet_test

// Causal tracing must be invisible to the deterministic scheduler: the
// sampling decision is a per-node counter (never env.Rand), span IDs are
// node-salted sequences, and journal appends add no events or timers.
// These regressions pin both halves of that contract — tracing-enabled
// runs replay byte-identically, and enabling tracing does not change the
// schedule a tracing-off run produces.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
	"idea/internal/tracing"
)

// runTracedCluster drives the sharded determinism workload with the
// given tracing config and returns the scheduler's event trace plus the
// JSON-encoded journal dump of every node.
func runTracedCluster(t *testing.T, seed int64, shards int, tc tracing.Config) (schedule []byte, journals []byte) {
	t.Helper()
	var buf bytes.Buffer
	nodes := []id.NodeID{1, 2, 3, 4}
	files := make([]id.FileID, 8)
	tops := make(map[id.FileID][]id.NodeID, len(files))
	for i := range files {
		files[i] = id.FileID(fmt.Sprintf("file-%d", i))
		tops[files[i]] = nodes
	}
	s, err := cluster.NewSim(cluster.Topology{
		Nodes: nodes, TopLayers: tops, Shards: shards,
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Tracing = tc
			return nil
		},
	}, simnet.Config{Seed: seed, EventTrace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	c, cores := s.C, s.Nodes
	// Hints make detection verdicts below the desired level trigger
	// resolution sessions, which continue the write's trace — the chain
	// the layer-coverage test asserts end to end.
	for _, nid := range nodes {
		for _, f := range files {
			if err := cores[nid].SetHint(f, 0.95); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 6; round++ {
		at := time.Duration(round+1) * 5 * time.Second
		for i, f := range files {
			nid := nodes[(round+i)%len(nodes)]
			f := f
			c.CallAtFile(at, nid, f, func(e env.Env) {
				cores[nid].Write(e, f, "w", []byte("x"), float64(round))
			})
		}
	}
	c.CallAtFile(40*time.Second, 1, files[0], func(e env.Env) {
		cores[1].DemandActiveResolution(e, files[0])
	})
	c.RunUntil(80 * time.Second)

	var js bytes.Buffer
	for _, nid := range nodes {
		d := tracing.DumpOf(cores[nid].Tracer(), 0, "")
		if err := json.NewEncoder(&js).Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), js.Bytes()
}

// TestTracedScheduleDeterministic replays the traced cluster from one
// seed twice: both the event schedule and every node's span journal must
// be byte-identical.
func TestTracedScheduleDeterministic(t *testing.T) {
	cfg := tracing.Config{SampleEvery: 2, Buffer: 32768}
	s1, j1 := runTracedCluster(t, 42, 4, cfg)
	s2, j2 := runTracedCluster(t, 42, 4, cfg)
	if len(s1) == 0 {
		t.Fatal("empty event trace")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("same seed with tracing enabled produced different schedules")
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("same seed produced different journal dumps")
	}
	if len(j1) == 0 || !bytes.Contains(j1, []byte(tracing.EvInject)) {
		t.Fatalf("journals recorded no inject events:\n%.400s", j1)
	}
}

// TestTracingDoesNotPerturbSchedule is the zero-interference claim:
// a tracing-enabled run and a tracing-off run of the same seed must
// produce the exact same event schedule — sampling, ID minting, and
// journal appends draw nothing from the scheduler or env.Rand.
func TestTracingDoesNotPerturbSchedule(t *testing.T) {
	off, _ := runTracedCluster(t, 42, 4, tracing.Config{})
	on, _ := runTracedCluster(t, 42, 4, tracing.Config{SampleEvery: 1})
	if !bytes.Equal(off, on) {
		i := 0
		for i < len(off) && i < len(on) && off[i] == on[i] {
			i++
		}
		lo := i - 120
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("enabling tracing changed the schedule; first divergence at byte %d:\noff: …%s\non:  …%s",
			i, off[lo:min(i+120, len(off))], on[lo:min(i+120, len(on))])
	}
}

// TestTracedChainCoversProtocolLayers asserts a fully-sampled emulation
// produces the cross-layer causal chain the tracing layer promises:
// inject and wal.append on the writer, detect events on peers, resolve
// events from the demanded session, and apply on a remote replica.
func TestTracedChainCoversProtocolLayers(t *testing.T) {
	_, journals := runTracedCluster(t, 7, 4, tracing.Config{SampleEvery: 1, Buffer: 65536})
	for _, ev := range []string{
		tracing.EvInject, tracing.EvWAL, tracing.EvDetectStart, tracing.EvDetectPeer,
		tracing.EvDetectReply, tracing.EvDetectVerdict, tracing.EvResolveStart,
		tracing.EvCollect, tracing.EvInform, tracing.EvApply, tracing.EvVerdict,
	} {
		if !bytes.Contains(journals, []byte(`"`+ev+`"`)) {
			t.Errorf("no %q event in any journal", ev)
		}
	}
}
