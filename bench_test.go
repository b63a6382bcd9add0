package idea_test

// Benchmarks of the live runtime that only a real node can show: the
// sharded write path under a many-writer burst, and the snapshot join.
// They are reported, not gated — `go run ./benchmark` is the one gated
// ledger (README "Performance & CI gates"):
//
//	go test -run '^$' -bench 'ParallelWrite|JoinCatchup' .
//
// The paper's tables and figures are rendered by cmd/idea-bench and their
// shapes asserted by the internal/experiments Test*Shape tests.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idea"
	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/tracing"
	"idea/internal/vv"
	"idea/internal/wire"
)

// newBurstNode builds the one-node live-transport fixture the parallel
// write scenarios (bench and contention regression test) share: a
// sharded core node with gossip off behind a real TCP transport with
// metrics attached and a group-commit-8 WAL — durability is the
// benchmarked default, not an unmeasured option. Mutators adjust the
// remaining options (tracing on, the health engine off).
func newBurstNode(tb testing.TB, shards int, mut ...func(*core.Options)) *idea.LiveNode {
	ln, err := cluster.Listen(cluster.Topology{
		Nodes:     []id.NodeID{1},
		TopLayers: map[id.FileID][]id.NodeID{},
		Shards:    shards,
		WalDir:    tb.TempDir(),
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.DisableGossip = true
			for _, m := range mut {
				m(o)
			}
			return nil
		},
	}, cluster.Endpoint{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// burstWrites issues the write burst against an already running node and
// returns steady ops/sec and a write's mean service time, the wall time
// it spends in its handler. Completion and service time are tallied per
// file in cacheline-padded slots instead of a WaitGroup or one shared
// counter: a file's handlers all run on its shard, so each slot has one
// writer, and no contended atomic lands on every op to measure the
// harness instead of the runtime.
func burstWrites(ln *idea.LiveNode, files, writers, opsPerWriter int) (float64, time.Duration) {
	fileIDs := make([]id.FileID, files)
	for i := range fileIDs {
		fileIDs[i] = id.FileID(fmt.Sprintf("bench-%03d", i))
	}
	payload := []byte("parallel-writer-payload")
	var issuers sync.WaitGroup
	tallies := make([]burstTally, files)
	total := int64(writers * opsPerWriter)
	start := time.Now()
	for w := 0; w < writers; w++ {
		issuers.Add(1)
		go func(w int) {
			defer issuers.Done()
			for i := 0; i < opsPerWriter; i++ {
				fi := (i*writers + w) % len(fileIDs)
				f, tally := fileIDs[fi], &tallies[fi]
				ln.InjectFile(f, func(e env.Env) {
					t0 := time.Now()
					ln.N.Write(e, f, "bench", payload, 0)
					tally.busy += int64(time.Since(t0))
					tally.done.Add(1)
				})
			}
		}(w)
	}
	issuers.Wait()
	for {
		var done int64
		for i := range tallies {
			done += tallies[i].done.Load()
		}
		if done >= total {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	var busy int64
	for i := range tallies {
		busy += tallies[i].busy
	}
	return float64(total) / time.Since(start).Seconds(), time.Duration(busy / total)
}

// burstTally is one file's share of a burst, padded to a cache line so
// that shards tallying neighbouring files do not share one. busy is
// written before done is incremented, so a reader that has loaded the
// final done reads the final busy.
type burstTally struct {
	done atomic.Int64
	busy int64
	_    [48]byte
}

// BenchmarkParallelWrite drives the multi-file parallel-writer scenario
// through the real sharded runtime: each iteration is one burst of 16
// concurrent issuers pushing 8000 writes each (store apply + WAL +
// detect) over 64 files into one live node. The shard-count curve is
// shards=1|2|4|8, where shards=1 is the historical single event loop;
// the two shards=4 variants price 1 % trace sampling and turning the
// always-on health engine off against plain shards=4.
func BenchmarkParallelWrite(b *testing.B) {
	const (
		files        = 64
		writers      = 16
		opsPerWriter = 8_000
	)
	run := func(shards int, mut ...func(*core.Options)) func(*testing.B) {
		return func(b *testing.B) {
			ln := newBurstNode(b, shards, mut...)
			defer ln.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				burstWrites(ln, files, writers, opsPerWriter)
			}
			b.ReportMetric(float64(b.N*writers*opsPerWriter)/b.Elapsed().Seconds(), "ops/s")
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), run(shards))
	}
	b.Run("shards=4/tracing=1pc", run(4, func(o *core.Options) { o.Tracing = tracing.Config{SampleEvery: 100} }))
	b.Run("shards=4/health=off", run(4, func(o *core.Options) { o.Health = health.Config{Disable: true} }))
}

// BenchmarkJoinCatchup measures the dynamic-membership bootstrap: the
// wall clock from a joiner's start, given nothing but a seed's address,
// until its replica vector equals the seed's. meta-50k joins a 50k-update
// metadata-only replica; payload-16MiB joins 1024 × 16 KiB of data, more
// than both the per-chunk window and the transport's maximum frame, so
// only the chunked streaming path can move it.
func BenchmarkJoinCatchup(b *testing.B) {
	b.Run("meta-50k", func(b *testing.B) { benchJoin(b, 50_000, 4, 0) })
	b.Run("payload-16MiB", func(b *testing.B) {
		const updates, payload = 1024, 16 << 10
		b.SetBytes(updates * payload)
		benchJoin(b, updates, 3, payload)
	})
}

// benchJoin times b.N joins, each into a fresh seed holding an
// `updates`-deep replica (each update carrying `payload` bytes of data;
// 0 = metadata-only). Filling the seed is not timed. Both nodes run with
// the group-commit WAL attached, like production.
func benchJoin(b *testing.B, updates, writers, payload int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		joinCatchup(b, updates, writers, payload)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s")
}

// joinCatchup runs one join with the benchmark timer stopped except
// between the joiner's start and its convergence.
func joinCatchup(b *testing.B, updates, writers, payload int) {
	fast := &idea.MembershipConfig{
		ProbeInterval:  200 * time.Millisecond,
		ProbeTimeout:   100 * time.Millisecond,
		SuspectTimeout: 600 * time.Millisecond,
		JoinRetry:      250 * time.Millisecond,
	}
	seed, err := idea.NewLiveNode(idea.LiveNodeConfig{
		Self: 1, Listen: "127.0.0.1:0", All: []idea.NodeID{1},
		Swim: true, SwimConfig: fast, Shards: 1, WalDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer seed.Close()

	var data []byte
	if payload > 0 {
		data = make([]byte, payload)
		for i := range data {
			data[i] = byte(i)
		}
	}
	// Fill the seed's replica inside the file's serialization domain.
	filled := make(chan struct{})
	seed.InjectFile("bench", func(e env.Env) {
		rep := seed.N.Store().Open("bench")
		seqs := make(map[id.NodeID]int, writers)
		for i := 0; i < updates; i++ {
			w := id.NodeID(i%writers + 2)
			seqs[w]++
			rep.Apply(wire.Update{File: "bench", Writer: w, Seq: seqs[w],
				At: vv.Stamp(i+1) * 1e6, Op: "put", Data: data})
		}
		close(filled)
	})
	<-filled
	seedVec := make(chan *vv.Vector, 1)
	seed.InjectFile("bench", func(env.Env) { seedVec <- seed.N.Store().Open("bench").Vector() })
	want := <-seedVec

	b.StartTimer()
	joiner, err := idea.NewLiveNode(idea.LiveNodeConfig{
		Self: 9, Listen: "127.0.0.1:0", Join: seed.Addr(), SwimConfig: fast,
		Shards: 1, WalDir: b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer joiner.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := make(chan *vv.Vector, 1)
		joiner.InjectFile("bench", func(env.Env) { got <- joiner.N.Store().Open("bench").Vector() })
		if vv.Compare(<-got, want) == vv.Equal {
			b.StopTimer()
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("joiner never converged to the seed's %d-update replica", updates)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
