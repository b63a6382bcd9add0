package transport_test

import (
	"fmt"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
)

// TestShardQueueSaturationRaises: at default queue and detector sizes, a
// shard queue that fills while its handler blocks raises
// shard_queue_saturation (warn) within the detector's 3 evaluations.
// The blocked shard is 1, not 0, because the health tick runs on shard 0.
func TestShardQueueSaturationRaises(t *testing.T) {
	const (
		shardQueue = 1024 // transport.Opts' default
		satTicks   = 3    // the health detector's fixed tick count
	)
	lb, err := cluster.NewLoopback(cluster.Topology{
		Nodes:     []id.NodeID{1},
		TopLayers: map[id.FileID][]id.NodeID{},
		Shards:    2,
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Health.Interval = 20 * time.Millisecond
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	ln := lb.Node(1)
	var hot id.FileID
	for i := 0; ; i++ {
		if hot = id.FileID(fmt.Sprintf("hot-%d", i)); ln.N.ShardOfFile(hot) == 1 {
			break
		}
	}

	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go ln.InjectFile(hot, func(env.Env) {
		close(started)
		<-release
	})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocking handler never started")
	}
	// Fill the queue and one more: the last delivery waits on the full
	// queue. (Timers of shard 1 may take slots too, so this must not run
	// on the test goroutine.)
	go func() {
		for i := 0; i <= shardQueue; i++ {
			ln.InjectFile(hot, func(env.Env) {})
		}
	}()
	gauge := "core.shard_queue_depth.1"
	deadline := time.Now().Add(5 * time.Second)
	for ln.Metrics().Snapshot().Gauges[gauge] < shardQueue {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d with a full queue behind a blocked handler, want %d",
				gauge, ln.Metrics().Snapshot().Gauges[gauge], shardQueue)
		}
		time.Sleep(time.Millisecond)
	}

	eng := ln.N.Health()
	t0 := eng.Status().Ticks
	for {
		st := eng.Status()
		if st.Ticks < t0+satTicks {
			if time.Now().After(deadline.Add(5 * time.Second)) {
				t.Fatalf("health ticked %d times in 10 s", st.Ticks-t0)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		for _, a := range st.Active {
			if a.Detector == health.DetQueueSaturation {
				if a.Severity != health.SevWarn {
					t.Fatalf("full shard queue raised severity %v, want warn", a.Severity)
				}
				return
			}
		}
		t.Fatalf("%s not raised %d ticks after the queue filled; active: %+v",
			health.DetQueueSaturation, satTicks, st.Active)
	}
}
