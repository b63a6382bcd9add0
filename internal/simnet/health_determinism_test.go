package simnet_test

// The health engine must behave like protocol code under the
// deterministic scheduler: ticks ride virtual time, detectors read only
// probe data, and no randomness is drawn — so a seeded partition
// scenario produces byte-identical schedules, health transitions, and
// flight-recorder dumps run over run. The scenario itself pins the
// convergence-stall detector end to end: a partitioned writer keeps
// writing while its stability frontier stalls (raise, with the writes
// that flowed as evidence), then the partition heals and the frontier
// advances again (clear).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/simnet"
)

// runHealthPartition drives 3 nodes sharing one file: node 1 writes every
// second, is partitioned from both peers at 12s, and healed at 28s.
// It returns the scheduler's event trace plus every node's health status
// and flight dump, JSON-encoded in node order.
func runHealthPartition(t *testing.T, seed int64) (schedule, statuses, flights []byte) {
	t.Helper()
	var buf bytes.Buffer
	nodes := []id.NodeID{1, 2, 3}
	file := id.FileID("f")
	tops := map[id.FileID][]id.NodeID{file: nodes}
	s, err := cluster.NewSim(cluster.Topology{
		Nodes: nodes, TopLayers: tops,
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Gossip.Interval = 2 * time.Second
			o.Health = health.Config{
				Interval:              time.Second,
				ConvergenceStallAfter: 6 * time.Second,
			}
			return nil
		},
	}, simnet.Config{Seed: seed, EventTrace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	c, cores := s.C, s.Nodes
	// Hints make detection trigger resolution sessions, which is how
	// update bodies reach the peers — without them only digests flow, the
	// peers' writer counts never move, and the frontier can't advance.
	for _, nid := range nodes {
		if err := cores[nid].SetHint(file, 0.95); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		at := time.Duration(i+1) * time.Second
		c.CallAtFile(at, 1, file, func(e env.Env) {
			cores[1].Write(e, file, "w", []byte(fmt.Sprintf("v%d", at/time.Second)), 0)
		})
	}
	c.RunUntil(12 * time.Second)
	c.Partition(1, 2)
	c.Partition(1, 3)
	c.RunUntil(28 * time.Second)
	c.Heal(1, 2)
	c.Heal(1, 3)
	c.RunUntil(45 * time.Second)

	var st, fl bytes.Buffer
	for _, nid := range nodes {
		if err := json.NewEncoder(&st).Encode(cores[nid].Health().Status()); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&fl).Encode(health.DumpOf(nid, cores[nid].Flight())); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), st.Bytes(), fl.Bytes()
}

// TestPartitionStallRaisesAndClears asserts the scenario's health story:
// the partitioned writer raises convergence_stall critical with
// writes-in-flight evidence, and the heal clears it again.
func TestPartitionStallRaisesAndClears(t *testing.T) {
	schedule, statuses, _ := runHealthPartition(t, 11)
	if len(schedule) == 0 {
		t.Fatal("empty event trace")
	}
	dec := json.NewDecoder(bytes.NewReader(statuses))
	var writer health.Status
	if err := dec.Decode(&writer); err != nil {
		t.Fatal(err)
	}
	var raise, clear *health.Event
	for i := range writer.Recent {
		ev := &writer.Recent[i]
		if ev.Detector != health.DetConvergenceStall {
			continue
		}
		if ev.Raised && raise == nil {
			raise = ev
		}
		if !ev.Raised && raise != nil && clear == nil {
			clear = ev
		}
	}
	if raise == nil {
		t.Fatalf("writer never raised convergence_stall; recent = %+v", writer.Recent)
	}
	if raise.Severity != health.SevCritical {
		t.Fatalf("raise severity = %v, want critical", raise.Severity)
	}
	if raise.Evidence["writes_since_advance"] <= 0 {
		t.Fatalf("raise evidence missing flowing writes: %v", raise.Evidence)
	}
	if raise.Evidence["stalled_seconds"] < 6 {
		t.Fatalf("stalled_seconds = %v, want >= 6", raise.Evidence["stalled_seconds"])
	}
	if clear == nil {
		t.Fatalf("stall never cleared after heal; recent = %+v", writer.Recent)
	}
	if writer.Verdict != health.Healthy {
		t.Fatalf("writer verdict after heal = %v, want healthy", writer.Verdict)
	}
}

// TestHealthScheduleDeterministic replays the partition scenario from one
// seed twice: the event schedule, every node's health transitions, and
// every flight-recorder dump must be byte-identical.
func TestHealthScheduleDeterministic(t *testing.T) {
	s1, h1, f1 := runHealthPartition(t, 42)
	s2, h2, f2 := runHealthPartition(t, 42)
	if len(s1) == 0 {
		t.Fatal("empty event trace")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("same seed produced different schedules with health enabled")
	}
	if !bytes.Equal(h1, h2) {
		t.Fatalf("same seed produced different health transitions:\n%s\n%s", h1, h2)
	}
	if !bytes.Equal(f1, f2) {
		t.Fatal("same seed produced different flight dumps")
	}
	if !bytes.Contains(f1, []byte(health.FKHealthRaise)) {
		t.Fatal("flight dumps recorded no health.raise event")
	}
}
