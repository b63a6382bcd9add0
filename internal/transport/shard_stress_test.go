package transport_test

// Live sharded-runtime stress: a 3-node TCP cluster of multi-shard core
// nodes under concurrent writes to many files from several goroutines per
// node. Run under -race (CI does) this is the regression net for the
// cross-shard synchronization contract: store striping, membership and
// ransub locking, atomic hooks, and per-shard queue routing.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
)

func TestShardedClusterStress(t *testing.T) {
	const (
		shards  = 4
		nFiles  = 24
		writers = 4
		ops     = 120 // per writer goroutine
	)
	nodeIDs := []id.NodeID{1, 2, 3}
	files := make([]id.FileID, nFiles)
	tops := make(map[id.FileID][]id.NodeID, nFiles)
	for i := range files {
		files[i] = id.FileID(fmt.Sprintf("stress-%02d", i))
		tops[files[i]] = nodeIDs
	}

	lb, err := cluster.NewLoopback(cluster.Topology{Nodes: nodeIDs, TopLayers: tops, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	cores := make(map[id.NodeID]*core.Node, len(nodeIDs))
	trans := make(map[id.NodeID]*cluster.LiveNode, len(nodeIDs))
	for _, nid := range nodeIDs {
		trans[nid] = lb.Node(nid)
		cores[nid] = trans[nid].N
		if got := trans[nid].NumShards(); got != shards {
			t.Fatalf("node %v runs %d shards, want %d", nid, got, shards)
		}
	}

	// Every node: `writers` goroutines spraying writes across all files,
	// one goroutine mixing per-file reads/hints, one node-global
	// injector — all concurrently, against live detection traffic.
	var wg sync.WaitGroup
	for _, nid := range nodeIDs {
		nid := nid
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					f := files[(i*writers+w)%nFiles]
					trans[nid].InjectFile(f, func(e env.Env) {
						cores[nid].Write(e, f, "stress", []byte("payload"), float64(i))
					})
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				f := files[i%nFiles]
				if i%3 == 0 {
					trans[nid].InjectFile(f, func(env.Env) { cores[nid].SetHint(f, 0.9) })
				} else {
					trans[nid].InjectFile(f, func(env.Env) { cores[nid].Read(f) })
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				trans[nid].Inject(func(env.Env) {})
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()

	// held counts a node's updates, reading each file in its own domain:
	// resolution may still be applying to it.
	held := func(nid id.NodeID) int {
		var mu sync.Mutex
		var reads sync.WaitGroup
		total := 0
		for _, f := range files {
			reads.Add(1)
			trans[nid].InjectFile(f, func(env.Env) {
				defer reads.Done()
				n := len(cores[nid].Read(f))
				mu.Lock()
				total += n
				mu.Unlock()
			})
		}
		reads.Wait()
		return total
	}

	// Let in-flight detection round-trips and remote applies settle,
	// then verify no write was lost locally and the sharded queues saw
	// real traffic.
	deadline := time.Now().Add(5 * time.Second)
	for _, nid := range nodeIDs {
		for {
			total := held(nid)
			if total >= writers*ops || time.Now().After(deadline) {
				if got, want := total, writers*ops; got < want {
					t.Fatalf("node %v holds %d updates, want >= %d (own writes)", nid, got, want)
				}
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	snap := cores[1].Metrics().Snapshot()
	if snap.Counters["core.writes_total"] != int64(writers*ops) {
		t.Fatalf("node 1 writes_total = %d, want %d", snap.Counters["core.writes_total"], writers*ops)
	}
	if h, ok := snap.Histograms["core.queue_wait"]; !ok || h.Count == 0 {
		t.Fatal("core.queue_wait histogram never observed a dequeue")
	}
	if _, ok := snap.Gauges[fmt.Sprintf("core.shard_queue_depth.%d", shards-1)]; !ok {
		t.Fatalf("per-shard depth gauge for shard %d missing", shards-1)
	}
}
