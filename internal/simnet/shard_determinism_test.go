package simnet_test

// The multi-shard determinism regression: sharded handlers are scheduled
// by a seeded stable tie-break, so two runs from the same seed must
// produce byte-identical event schedules — the property every experiment
// and every "replay the bug from its seed" workflow depends on.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
)

// runShardedTrace builds a 4-node cluster of sharded core nodes, drives
// writes to many files via CallAtFile, and returns the full event trace
// plus a digest of final replica state.
func runShardedTrace(t *testing.T, seed int64, shards int) (trace []byte, state string) {
	t.Helper()
	var buf bytes.Buffer
	nodes := []id.NodeID{1, 2, 3, 4}
	files := make([]id.FileID, 8)
	tops := make(map[id.FileID][]id.NodeID, len(files))
	for i := range files {
		files[i] = id.FileID(fmt.Sprintf("file-%d", i))
		tops[files[i]] = nodes
	}
	s, err := cluster.NewSim(cluster.Topology{Nodes: nodes, TopLayers: tops, Shards: shards},
		simnet.Config{Seed: seed, EventTrace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	c, cores := s.C, s.Nodes
	// Concurrent writers across every file, plus a demanded resolution,
	// so detection, gossip, and the two-phase resolution protocol all
	// contribute events.
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

	var st bytes.Buffer
	for _, nid := range nodes {
		for _, f := range files {
			fmt.Fprintf(&st, "%v/%s=%d;", nid, f, len(cores[nid].Read(f)))
		}
	}
	return buf.Bytes(), st.String()
}

func TestShardedScheduleDeterministic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t1, s1 := runShardedTrace(t, 42, shards)
		t2, s2 := runShardedTrace(t, 42, shards)
		if len(t1) == 0 {
			t.Fatalf("shards=%d: empty event trace", shards)
		}
		if !bytes.Equal(t1, t2) {
			i := 0
			for i < len(t1) && i < len(t2) && t1[i] == t2[i] {
				i++
			}
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("shards=%d: same seed produced different schedules; first divergence at byte %d:\nrun1: …%s\nrun2: …%s",
				shards, i, t1[lo:min(i+120, len(t1))], t2[lo:min(i+120, len(t2))])
		}
		if s1 != s2 {
			t.Fatalf("shards=%d: same seed produced different final state:\n%s\n%s", shards, s1, s2)
		}
	}
}

// TestShardedSeedsDiverge sanity-checks that the tie-break really is
// seeded: different seeds must not collapse onto one schedule (which
// would suggest the rank permutation is ignored).
func TestShardedSeedsDiverge(t *testing.T) {
	t1, _ := runShardedTrace(t, 1, 4)
	t2, _ := runShardedTrace(t, 2, 4)
	if bytes.Equal(t1, t2) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestShardedConvergesLikeSingleLoop runs the same workload under 1 and 4
// logical shards: schedules differ, but every replica must converge to
// the same update counts — sharding may reorder independent files, never
// lose or duplicate work.
func TestShardedConvergesLikeSingleLoop(t *testing.T) {
	_, s1 := runShardedTrace(t, 7, 1)
	_, s4 := runShardedTrace(t, 7, 4)
	if s1 != s4 {
		t.Fatalf("single-loop and sharded runs disagree on final state:\nshards=1: %s\nshards=4: %s", s1, s4)
	}
}
