package loadgen

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
)

func TestMixPickRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Mix{Write: 6, Read: 3, Hint: 1}
	const draws = 40000
	var got [numOps]int
	for i := 0; i < draws; i++ {
		got[m.Pick(rng)]++
	}
	want := map[Op]float64{OpWrite: 0.6, OpRead: 0.3, OpHint: 0.1, OpResolve: 0}
	for op, frac := range want {
		gotFrac := float64(got[op]) / draws
		if math.Abs(gotFrac-frac) > 0.02 {
			t.Errorf("%v fraction = %.3f, want %.2f ± 0.02", op, gotFrac, frac)
		}
	}
}

func TestMixZeroMeansPureWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var m Mix
	for i := 0; i < 100; i++ {
		if op := m.Pick(rng); op != OpWrite {
			t.Fatalf("zero mix picked %v, want write", op)
		}
	}
}

func TestFilePickerZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	files := []id.FileID{"hot", "b", "c", "d", "e", "f", "g", "h"}
	fp := newFilePicker(rng, files, 1.5)
	counts := map[id.FileID]int{}
	for i := 0; i < 10000; i++ {
		counts[fp.pick()]++
	}
	if counts["hot"] < 3*counts["h"] {
		t.Errorf("zipf skew too flat: hot=%d tail=%d", counts["hot"], counts["h"])
	}
	// Uniform sanity: every file within 3x of each other.
	fpU := newFilePicker(rng, files, 0)
	countsU := map[id.FileID]int{}
	for i := 0; i < 10000; i++ {
		countsU[fpU.pick()]++
	}
	for _, f := range files {
		if countsU[f] < 10000/len(files)/3 {
			t.Errorf("uniform picker starved %v: %d", f, countsU[f])
		}
	}
}

// emulatedCluster builds a started n-node emulated deployment with a
// pinned top layer over the given files and the gossip layer off.
func emulatedCluster(t *testing.T, n int, files []id.FileID, net simnet.Config) (*simnet.Cluster, map[id.NodeID]*core.Node) {
	t.Helper()
	all := cluster.IDs(n)
	tops := map[id.FileID][]id.NodeID{}
	for _, f := range files {
		tops[f] = all
	}
	s, err := cluster.NewSim(cluster.Topology{
		Nodes:     all,
		TopLayers: tops,
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.DisableGossip = true
			return nil
		},
	}, net)
	if err != nil {
		t.Fatal(err)
	}
	return s.C, s.Nodes
}

// wan is the 4-node fixtures' network: a ~100 ms-RTT WAN.
func wan(seed int64) simnet.Config {
	return simnet.Config{Seed: seed, Latency: simnet.WAN{Median: 50 * time.Millisecond}}
}

func TestRunEmulatedReportsThroughputAndLatency(t *testing.T) {
	files := []id.FileID{"a", "b"}
	sim, nodes := emulatedCluster(t, 4, files, wan(1))
	rep := RunEmulated(Config{
		Seed:     1,
		Duration: 60 * time.Second,
		Rate:     10,
		RampUp:   5 * time.Second,
		Mix:      Mix{Write: 7, Read: 2, Resolve: 1},
		Files:    files,
	}, sim, nodes, nil)

	if rep.Ops == 0 {
		t.Fatal("no operations completed")
	}
	w, ok := rep.PerOp["write"]
	if !ok || w.Count == 0 {
		t.Fatalf("no writes in report: %+v", rep)
	}
	// Detection runs against a ~100ms-RTT WAN top layer: the write
	// round trip must be visible and bounded by the 2s detect timeout.
	if w.P50 < 10*time.Millisecond || w.P50 > 3*time.Second {
		t.Errorf("write p50 = %v, want WAN-scale latency", w.P50)
	}
	if w.P95 < w.P50 || w.P99 < w.P95 {
		t.Errorf("percentiles not monotonic: %+v", w)
	}
	if rep.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0", rep.Timeouts)
	}
	// The mix must be visible in the completed counts (broad tolerance:
	// resolves complete as sessions, not per demand).
	r := rep.PerOp["read"]
	if r.Count == 0 || w.Count < 2*r.Count {
		t.Errorf("mix not respected: write=%d read=%d", w.Count, r.Count)
	}
	// Instrumentation: the run must have populated the per-node
	// detection histograms the /metrics endpoint serves.
	var detections int64
	for _, n := range nodes {
		snap := n.Metrics().Snapshot()
		detections += snap.Histograms["detect.roundtrip_seconds"].Count
	}
	if detections == 0 {
		t.Error("detect.roundtrip_seconds never observed on any node")
	}
}

func TestRunEmulatedResolveSessions(t *testing.T) {
	files := []id.FileID{"f"}
	sim, nodes := emulatedCluster(t, 4, files, wan(2))
	rep := RunEmulated(Config{
		Seed:     2,
		Duration: 60 * time.Second,
		Rate:     5,
		Mix:      Mix{Write: 4, Resolve: 1},
		Files:    files,
	}, sim, nodes, nil)
	res, ok := rep.PerOp["resolve"]
	if !ok || res.Count == 0 {
		t.Fatalf("no resolution sessions completed: %+v", rep)
	}
	if res.P50 <= 0 {
		t.Errorf("resolve p50 = %v, want > 0", res.P50)
	}
}

// TestRunEmulatedLoneWriter is the regression test for synchronous
// probe finalization: with no top-layer peers the detect verdict fires
// inside WriteTracked, before the issuing closure marks its token; such
// writes must still be recorded, not counted as timeouts.
func TestRunEmulatedLoneWriter(t *testing.T) {
	files := []id.FileID{"f"}
	sim, nodes := emulatedCluster(t, 1, files, simnet.Config{Seed: 9})
	rep := RunEmulated(Config{
		Seed:     9,
		Duration: 10 * time.Second,
		Rate:     5,
		Files:    files,
	}, sim, nodes, nil)
	if rep.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0 (early verdicts lost)", rep.Timeouts)
	}
	if w := rep.PerOp["write"]; w.Count == 0 {
		t.Fatalf("lone-writer writes not recorded: %+v", rep)
	}
}

func TestReportString(t *testing.T) {
	files := []id.FileID{"f"}
	sim, nodes := emulatedCluster(t, 4, files, wan(3))
	rep := RunEmulated(Config{Seed: 3, Duration: 20 * time.Second, Rate: 5, Files: files}, sim, nodes, nil)
	s := rep.String()
	for _, want := range []string{"ops/sec", "p50", "p95", "p99", "write"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
