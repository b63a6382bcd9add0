package cluster_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
	"idea/internal/wire"
)

// noGossip is the hook of the paper's §6 configuration: bottom layer off.
func noGossip(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
	o.DisableGossip = true
	return nil
}

// scheduleHash builds t on a traced simulator, lets drive script a
// workload and run it, and returns the FNV-64a hash of the event trace —
// the fingerprint plans.Timeline.ScheduleHash uses.
func scheduleHash(t *testing.T, topo cluster.Topology, net simnet.Config, drive func(*cluster.Sim)) string {
	t.Helper()
	var trace bytes.Buffer
	net.EventTrace = &trace
	s, err := cluster.NewSim(topo, net)
	if err != nil {
		t.Fatal(err)
	}
	drive(s)
	h := fnv.New64a()
	h.Write(trace.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenSchedules pins the builder to the hand-wired builders it
// replaced: the hashes were recorded at the parent commit through
// idea.NewEmulatedCluster (the quickstart topology) and
// experiments.NewCluster (its 40-node/4-writer defaults) driving the same
// workloads, at 1 and 4 shards. Equal hashes mean the builder adds the
// same nodes in the same order with the same options. The five catalog
// plans are pinned the same way in internal/plans.
func TestGoldenSchedules(t *testing.T) {
	quickstart := func(shards int) string {
		all := cluster.IDs(4)
		return scheduleHash(t, cluster.Topology{
			Nodes:     all,
			TopLayers: map[id.FileID][]id.NodeID{"board": all},
			Shards:    shards,
			Hook:      noGossip,
		}, simnet.Config{Seed: 42}, func(s *cluster.Sim) {
			for round := 0; round < 6; round++ {
				at := time.Duration(round+1) * 5 * time.Second
				for _, nid := range all {
					nid := nid
					s.C.CallAtFile(at, nid, "board", func(e env.Env) {
						s.Nodes[nid].Write(e, "board", "draw", []byte("op"), 0)
					})
				}
			}
			s.C.CallAtFile(40*time.Second, 1, "board", func(e env.Env) {
				s.Nodes[1].DemandActiveResolution(e, "board")
			})
			s.C.RunUntil(60 * time.Second)
		})
	}
	paper := func(shards int) string {
		const file = id.FileID("whiteboard")
		writers := cluster.IDs(4)
		return scheduleHash(t, cluster.Topology{
			Nodes:     cluster.IDs(40),
			TopLayers: map[id.FileID][]id.NodeID{file: writers},
			Shards:    shards,
			Hook:      noGossip,
		}, simnet.Config{Seed: 1, Latency: simnet.WAN{}}, func(s *cluster.Sim) {
			// experiments.Cluster.Warmup, then ScheduleUniformWrites(5s, 30s).
			s.C.CallAtFile(100*time.Millisecond, 1, file, func(e env.Env) {
				u := s.Nodes[1].Store().Open(file).WriteLocal(e.Stamp(), "init", nil, 0)
				for _, w := range writers[1:] {
					s.Nodes[w].Store().Open(file).Apply(u)
				}
			})
			s.C.RunFor(200 * time.Millisecond)
			for at := 5 * time.Second; at <= 30*time.Second; at += 5 * time.Second {
				for _, w := range writers {
					w := w
					s.C.CallAtFile(at, w, file, func(e env.Env) {
						s.Nodes[w].Write(e, file, "draw", []byte("op"), 0)
					})
				}
			}
			s.C.RunUntil(40 * time.Second)
		})
	}
	for _, tc := range []struct {
		name   string
		run    func(shards int) string
		shards int
		want   string
	}{
		{"quickstart", quickstart, 1, "d8da797c1922cb66"},
		{"quickstart", quickstart, 4, "c73e18823e88cd0c"},
		{"experiments", paper, 1, "846b9d919d9c275d"},
		{"experiments", paper, 4, "55a3318ba0ecd935"},
	} {
		if got := tc.run(tc.shards); got != tc.want {
			t.Errorf("%s at %d shards: schedule hash %s, parent recorded %s", tc.name, tc.shards, got, tc.want)
		}
	}
}

// TestJournalErrorIsReturned: a topology that asks for journals gets them
// or the builder fails — at build time and when a later incarnation is
// prepared — instead of continuing memory-only.
func TestJournalErrorIsReturned(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	topo := cluster.Topology{Nodes: cluster.IDs(2), WalDir: filepath.Join(notADir, "wal")}
	if _, err := cluster.NewSim(topo, simnet.Config{Seed: 1}); err == nil {
		t.Fatal("NewSim built a journaled cluster under a regular file")
	}
	if _, err := cluster.NewLoopback(topo); err == nil {
		t.Fatal("NewLoopback built a journaled cluster under a regular file")
	}

	topo.WalDir = t.TempDir()
	s, err := cluster.NewSim(topo, simnet.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Replace the scratch directory with a file: the next incarnation's
	// journal cannot be created.
	if err := os.RemoveAll(topo.WalDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(topo.WalDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Factory(2); err == nil {
		t.Fatal("Factory prepared an incarnation without its journal")
	}
}

// TestLoopbackMeshResolvesAndCloses: three nodes built and meshed by the
// builder carry one write to every replica, and Close leaves no writer
// goroutine redialing (the check TestRemovePeerStopsRedial uses: the dial
// retry counters stop moving).
func TestLoopbackMeshResolvesAndCloses(t *testing.T) {
	const file = id.FileID("f")
	all := cluster.IDs(3)
	lb, err := cluster.NewLoopback(cluster.Topology{
		Nodes:     all,
		TopLayers: map[id.FileID][]id.NodeID{file: all},
		Shards:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	w := lb.Node(1)
	w.InjectFile(file, func(e env.Env) { w.N.Write(e, file, "w", []byte("x"), 0) })
	deadline := time.Now().Add(10 * time.Second)
	for _, nid := range all {
		ln := lb.Node(nid)
		for {
			got := make(chan int, 1)
			ln.InjectFile(file, func(e env.Env) {
				ln.N.DemandActiveResolution(e, file)
				got <- len(ln.N.Read(file))
			})
			if <-got == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the write never reached node %v", nid)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Node 3 dies: its peers' writers fall into the dial/backoff loop as
	// soon as a write to it fails. The kernel may still accept the first
	// frame to a peer that has just closed, so one frame need fail
	// nothing: write again every 100 ms until a writer redials. Each
	// write probes every top-layer peer. A resolution demand would not
	// do: a session node 3 started just before it closed never informs
	// its members, so their resolvers stay engaged and back off.
	lb.Node(3).Close()
	retries := func() (n int64) {
		for _, nid := range all {
			n += lb.Node(nid).Metrics().Snapshot().Counters["transport.dial_retries_total"]
		}
		return n
	}
	var wrote time.Time
	for retries() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no writer ever redialed the dead node; the check below would be vacuous")
		}
		if time.Since(wrote) >= 100*time.Millisecond {
			w.InjectFile(file, func(e env.Env) { w.N.Write(e, file, "w", []byte("x"), 0) })
			wrote = time.Now()
		}
		time.Sleep(5 * time.Millisecond)
	}
	lb.Close()
	before := retries()
	time.Sleep(500 * time.Millisecond)
	if after := retries(); after != before {
		t.Fatalf("dial retries still advancing after Close: %d -> %d", before, after)
	}
}

// TestReadViewsSurviveRemoteWrites: a client goroutine keeps walking
// Node.Read results outside the node's shard while that shard applies
// remote writes and adopts resolution images (two conflicting writers, so
// images also invalidate). Every view must read the same as when it was
// returned, and under -race no element a view covers may be written.
func TestReadViewsSurviveRemoteWrites(t *testing.T) {
	const file = id.FileID("f")
	all := cluster.IDs(3)
	lb, err := cluster.NewLoopback(cluster.Topology{
		Nodes:     all,
		TopLayers: map[id.FileID][]id.NodeID{file: all},
		Shards:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, nid := range []id.NodeID{1, 3} {
		ln := lb.Node(nid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				done := make(chan struct{})
				ln.InjectFile(file, func(e env.Env) {
					ln.N.Write(e, file, "w", []byte{byte(i)}, float64(i))
					if i%4 == 0 {
						ln.N.DemandActiveResolution(e, file)
					}
					close(done)
				})
				<-done
				time.Sleep(time.Millisecond)
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	reader := lb.Node(2)
	read := func() []wire.Update {
		got := make(chan []wire.Update, 1)
		reader.InjectFile(file, func(env.Env) { got <- reader.N.Read(file) })
		return <-got
	}
	// The first view lives through the whole run; the latest few are
	// re-walked on every pass.
	type held struct{ view, copy []wire.Update }
	var first held
	var recent []held
	lens := make(map[int]bool)
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		v := read()
		h := held{v, append([]wire.Update(nil), v...)}
		if first.view == nil && len(v) > 0 {
			first = h
		}
		lens[len(v)] = true
		if recent = append(recent, h); len(recent) > 8 {
			recent = recent[1:]
		}
		for _, h := range append(recent, first) {
			if !reflect.DeepEqual(h.view, h.copy) {
				t.Fatalf("a Read view changed after return: len %d", len(h.view))
			}
		}
	}
	if len(lens) < 3 {
		t.Fatalf("node 2's log took %d distinct lengths; remote writes never reached it", len(lens))
	}
}
