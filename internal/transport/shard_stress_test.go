package transport_test

// Live sharded-runtime stress: a 3-node TCP cluster of multi-shard core
// nodes under concurrent writes to many files from several goroutines per
// node. Run under -race (CI does) this is the regression net for the
// cross-shard synchronization contract: store striping, membership and
// ransub locking, atomic hooks, and per-shard queue routing.
//
// The cluster resolves conflicts with MergeAll, which adopts the union of
// every replica's updates, so by design no node loses a write it made:
// a node that holds fewer of its own writes than it issued lost one to a
// race. (Under the default HighestID policy a conflict invalidates the
// losers' updates, so a count of a node's own writes would prove
// nothing.)

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/resolve"
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

	lb, err := cluster.NewLoopback(cluster.Topology{
		Nodes: nodeIDs, TopLayers: tops, Shards: shards,
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Resolve.Policy = resolve.MergeAll
			return nil
		},
	})
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

	// ownHeld counts the distinct updates a node holds that it wrote
	// itself, reading each file in its own domain: resolution may still
	// be applying to it.
	ownHeld := func(nid id.NodeID) int {
		var mu sync.Mutex
		var reads sync.WaitGroup
		type write struct {
			file id.FileID
			seq  int
		}
		own := make(map[write]bool)
		for _, f := range files {
			reads.Add(1)
			trans[nid].InjectFile(f, func(env.Env) {
				defer reads.Done()
				log := cores[nid].Read(f)
				mu.Lock()
				defer mu.Unlock()
				for _, u := range log {
					if u.Writer == nid {
						own[write{f, u.Seq}] = true
					}
				}
			})
		}
		reads.Wait()
		return len(own)
	}

	// Let in-flight detection round-trips and remote applies settle,
	// then verify no node lost a write of its own and the sharded queues
	// saw real traffic.
	want := writers * ops
	deadline := time.Now().Add(5 * time.Second)
	for _, nid := range nodeIDs {
		for {
			got := ownHeld(nid)
			if got == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %v holds %d of its own %d writes (rollbacks %d)",
					nid, got, want, cores[nid].RollbacksTotal())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	snap := cores[1].Metrics().Snapshot()
	if snap.Counters["core.writes_total"] != int64(want) {
		t.Fatalf("node 1 writes_total = %d, want %d", snap.Counters["core.writes_total"], want)
	}
	if h, ok := snap.Histograms["core.queue_wait"]; !ok || h.Count == 0 {
		t.Fatal("core.queue_wait histogram never observed a dequeue")
	}
	if _, ok := snap.Gauges[fmt.Sprintf("core.shard_queue_depth.%d", shards-1)]; !ok {
		t.Fatalf("per-shard depth gauge for shard %d missing", shards-1)
	}
}
