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
// bounds the core.queue_wait p99 in units of the burst's own per-write
// service time: the mean wall time a write spends in its handler,
// measured in the same run. That makes the bound a queue depth. A
// saturating burst keeps each bounded shard queue full, so a write waits
// for its shard's running batch and the queue ahead of it: about
// 2·ShardQueue = 2048 service times (1750–2550 measured on 2 vCPUs, with
// and without -race). A cross-shard serializer (a shared hot lock) makes
// each write also wait out the other shards' writes, about 4× that
// (7900–12200 measured with every dispatch behind one node-wide mutex),
// and an unsampled per-event observation or a runner that cannot keep up
// stretches the wait the same way, while the handler's own time stays
// put. A wall-clock bound measured the machine as much as the runtime:
// under -race on 2 vCPUs a healthy burst's waits run to hundreds of ms.
//
// Those faults stretch every burst's waits. The OS descheduling one
// shard's runner for tens of milliseconds, which happens while other test
// binaries build and run beside this one, stretches one burst's: the p99
// of a burst's ~500 sampled waits is its fifth-longest, and a stalled
// runner's full queue holds about 16 sampled events. So the test bounds
// the lowest p99 of up to maxBursts bursts, each on a fresh node, and
// passes at the first burst within the bound.
func TestShardQueueWaitBoundedUnderBurst(t *testing.T) {
	const (
		// maxWaitServices bounds the p99 in service times: twice a
		// healthy burst's two queues' worth.
		maxWaitServices = 4 * 1024
		maxBursts       = 5
	)
	for burst := 1; ; burst++ {
		waits := queueWaitBurst(t)
		if waits <= maxWaitServices {
			return
		}
		if burst == maxBursts {
			t.Fatalf("queue-wait p99 above %d service times in all %d bursts: a shard executor is not keeping up",
				maxWaitServices, maxBursts)
		}
	}
}

// queueWaitBurst runs one write burst on a fresh 4-shard node and returns
// its core.queue_wait p99 in service times, after checking that the
// sampled queue telemetry recorded and settled.
func queueWaitBurst(t *testing.T) float64 {
	const (
		shards       = 4
		files        = 64
		writers      = 8
		opsPerWriter = 4_000
	)
	ln := newBurstNode(t, shards)
	defer ln.Close()
	n := ln.N
	opsPerSec, service := burstWrites(ln, files, writers, opsPerWriter)

	snap := n.Metrics().Snapshot()
	qw, ok := snap.Histograms["core.queue_wait"]
	if !ok || qw.Count == 0 {
		t.Fatal("core.queue_wait recorded nothing — sampling must still observe under load")
	}
	p99 := time.Duration(qw.P99 * float64(time.Second))
	waits := float64(p99) / float64(service)
	t.Logf("burst: %.0f ops/sec over %d shards; service %v per write; queue-wait p99 %v = %.0f service times (max %v)",
		opsPerSec, shards, service, p99, waits, time.Duration(qw.Max*float64(time.Second)))

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
			return waits
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard queue depth gauges never settled to 0: %v", snap.Gauges)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
