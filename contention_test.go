package idea_test

// Contention regression tests for the sharded execution runtime: the
// shard queues must stay drained under a many-writer burst (queue-wait
// p99 bounded), and the sampled queue telemetry must still record and
// settle. These pin the PR-5 contention kill — if a future change
// reintroduces a cross-shard serializer (a shared hot lock, an
// unsampled per-event observation, a writer that can't keep up), the
// wait distribution blows past the bound long before a human notices
// the throughput graph.

import (
	"testing"
	"time"
)

// TestShardQueueWaitBoundedUnderBurst drives a 4-shard node with 8
// concurrent writers bursting 64 files through the live transport and
// asserts the core.queue_wait p99 stays far below the backpressure
// horizon. The bound is deliberately loose (250 ms against a typical
// p99 of well under 10 ms) so it only trips on real contention
// regressions, not on a noisy CI neighbour.
func TestShardQueueWaitBoundedUnderBurst(t *testing.T) {
	const (
		shards       = 4
		files        = 64
		writers      = 8
		opsPerWriter = 4_000
	)
	ln := newBurstNode(t, shards)
	defer ln.Close()
	n := ln.N
	opsPerSec := burstWrites(t, ln, files, writers, opsPerWriter)
	t.Logf("burst: %.0f ops/sec over %d shards", opsPerSec, shards)

	snap := n.Metrics().Snapshot()
	qw, ok := snap.Histograms["core.queue_wait"]
	if !ok || qw.Count == 0 {
		t.Fatal("core.queue_wait recorded nothing — sampling must still observe under load")
	}
	if p99 := time.Duration(qw.P99 * float64(time.Second)); p99 > 250*time.Millisecond {
		t.Fatalf("queue-wait p99 = %v (max %v): a shard executor is not keeping up", p99, qw.Max)
	}

	// The sampled depth gauges must settle to zero once the burst is
	// drained — a frozen nonzero depth means the settle path regressed.
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		snap = n.Metrics().Snapshot()
		for name, v := range snap.Gauges {
			if len(name) >= 22 && name[:22] == "core.shard_queue_depth" && v != 0 {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard queue depth gauges never settled to 0: %v", snap.Gauges)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
