package loadgen

import (
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
)

// liveTopology is count nodes with a pinned top layer over file "f",
// gossip off, and the given detect timeout (zero keeps the default).
func liveTopology(count int, detectTimeout time.Duration) cluster.Topology {
	all := cluster.IDs(count)
	return cluster.Topology{
		Nodes:     all,
		TopLayers: map[id.FileID][]id.NodeID{"f": all},
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.DisableGossip = true
			o.Detect.Timeout = detectTimeout
			return nil
		},
	}
}

// liveCluster starts count real-TCP nodes on loopback, meshed.
func liveCluster(t *testing.T, topo cluster.Topology) *cluster.Loopback {
	t.Helper()
	lb, err := cluster.NewLoopback(topo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lb.Close)
	return lb
}

func TestRunLiveClosedLoop(t *testing.T) {
	lb := liveCluster(t, liveTopology(3, 0))
	driver := lb.Node(1)
	rep := RunLive(Config{
		Seed:     1,
		Duration: 1500 * time.Millisecond,
		Workers:  2,
		Mix:      Mix{Write: 8, Read: 2},
		Files:    []id.FileID{"f"},
	}, driver.N, driver, driver.Metrics())

	w := rep.PerOp["write"]
	if w.Count == 0 {
		t.Fatalf("no writes completed: %+v", rep)
	}
	if w.P50 <= 0 || w.P99 < w.P50 {
		t.Errorf("bad write percentiles: %+v", w)
	}
	if rep.OpsPerSec <= 0 {
		t.Errorf("ops/sec = %v, want > 0", rep.OpsPerSec)
	}
	// The driver node's registry must now hold both the loadgen
	// histograms and the detection round-trip the writes triggered.
	snap := driver.Metrics().Snapshot()
	if snap.Histograms["loadgen.write_seconds"].Count == 0 {
		t.Error("loadgen.write_seconds missing from node registry")
	}
	if snap.Histograms["detect.roundtrip_seconds"].Count == 0 {
		t.Error("detect.roundtrip_seconds never observed on driver node")
	}
	// Peer nodes answered detect requests over real TCP.
	peerSnap := lb.Node(2).Metrics().Snapshot()
	if peerSnap.Counters["detect.peer_requests_total"] == 0 {
		t.Error("peer never served a detect request")
	}
}

func TestRunLiveOpenLoopWithRamp(t *testing.T) {
	driver := liveCluster(t, liveTopology(2, 0)).Node(1)
	rep := RunLive(Config{
		Seed:     2,
		Duration: 1200 * time.Millisecond,
		Rate:     200,
		RampUp:   400 * time.Millisecond,
		Files:    []id.FileID{"f"},
	}, driver.N, driver, nil)
	w := rep.PerOp["write"]
	if w.Count == 0 {
		t.Fatalf("no writes completed: %+v", rep)
	}
	// Ramp-up: the run must complete clearly fewer ops than the flat
	// target (200/s * 1.2s = 240) yet a meaningful number of them.
	if w.Count >= 240 {
		t.Errorf("ramp had no effect: %d writes", w.Count)
	}
	if w.Count < 40 {
		t.Errorf("too few writes for 200/s over 1.2s: %d", w.Count)
	}
}

// TestRunLiveChurnScenario exercises the churn knob: a 3-node cluster
// under closed-loop load has its third member killed and restarted every
// 2 s of the measured window; the report must carry the churn summary
// (steady/dip/recovery) and the per-second timeline feeding it.
func TestRunLiveChurnScenario(t *testing.T) {
	topo := liveTopology(3, 250*time.Millisecond)
	lb := liveCluster(t, topo)
	driver := lb.Node(1)

	// The churn victim is node 3: kill closes its transport, restart
	// re-listens on the same address with a fresh protocol stack (the
	// peers' writer loops redial it automatically).
	victim := lb.Node(3)
	t.Cleanup(func() { victim.Close() })
	churn := func(round int) (restart func()) {
		addr := victim.Addr()
		victim.Close()
		return func() {
			ln, err := cluster.Listen(topo, cluster.Endpoint{
				Self: 3, Listen: addr,
				Peers: map[id.NodeID]string{1: driver.Addr(), 2: lb.Node(2).Addr()},
			})
			if err != nil {
				t.Logf("churn restart: %v", err)
				return
			}
			victim = ln
		}
	}

	rep := RunLive(Config{
		Seed:       3,
		Duration:   6 * time.Second,
		Workers:    4,
		OpTimeout:  time.Second,
		Files:      []id.FileID{"f"},
		ChurnEvery: 2 * time.Second,
		Churn:      churn,
	}, driver.N, driver, nil)

	if rep.Churn == nil {
		t.Fatal("churn run produced no churn report")
	}
	if rep.Churn.Rounds < 1 {
		t.Fatalf("churn rounds = %d, want >= 1", rep.Churn.Rounds)
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("no per-second timeline recorded")
	}
	if rep.Churn.DipOpsPerSec > rep.Churn.SteadyOpsPerSec {
		t.Errorf("dip %.1f > steady %.1f", rep.Churn.DipOpsPerSec, rep.Churn.SteadyOpsPerSec)
	}
	if rep.Churn.RecoverySeconds < 0 {
		t.Errorf("negative recovery: %v", rep.Churn.RecoverySeconds)
	}
	if rep.PerOp["write"].Count == 0 {
		t.Fatal("no writes completed under churn")
	}
	t.Logf("churn: %+v (timeline %v)", *rep.Churn, rep.Timeline)
}

// TestRunLiveStopEndsEarly covers the graceful-shutdown path: closing
// Config.Stop ends the run well before its configured duration and the
// report covers what completed.
func TestRunLiveStopEndsEarly(t *testing.T) {
	driver := liveCluster(t, liveTopology(2, 0)).Node(1)
	stop := make(chan struct{})
	go func() {
		time.Sleep(500 * time.Millisecond)
		close(stop)
	}()
	start := time.Now()
	rep := RunLive(Config{
		Seed:     4,
		Duration: 30 * time.Second,
		Workers:  2,
		Files:    []id.FileID{"f"},
		Stop:     stop,
	}, driver.N, driver, nil)
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("stop ignored: run took %v", el)
	}
	if rep.Ops == 0 {
		t.Fatal("no ops before stop")
	}
}
