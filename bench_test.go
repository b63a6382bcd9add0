package idea_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6), plus the ablations DESIGN.md §3 indexes. Each bench re-runs the
// corresponding experiment end-to-end on the deterministic WAN emulator
// and reports the headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. cmd/idea-bench prints the full
// tables and series.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"idea"
	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/experiments"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/store"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/vv"
	"idea/internal/wire"
)

// linearMissingFrom is the seed's O(total·log total) anti-entropy shape —
// full log scan plus sort — kept only as the reference the indexed
// implementation is measured against.
func linearMissingFrom(log []wire.Update, remote *vv.Vector) []wire.Update {
	var out []wire.Update
	for _, u := range log {
		if u.Seq > remote.Count(u.Writer) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Writer != out[j].Writer {
			return out[i].Writer < out[j].Writer
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// newBurstNode builds the one-node live-transport fixture the parallel
// write scenarios (bench and contention regression test) share: a
// sharded core node with gossip/ransub off behind a real TCP transport
// with metrics attached.
func newBurstNode(tb testing.TB, shards int) *idea.LiveNode {
	return newTracedBurstNode(tb, shards, tracing.Config{})
}

// newTracedBurstNode is newBurstNode with a tracing config, so the bench
// can compare the burst with tracing off against 1% sampling. The node
// runs with a group-commit-8 WAL attached — durability is the benchmarked
// default, not an unmeasured option. Mutators adjust the remaining
// options (the health-overhead burst turns the engine off this way).
func newTracedBurstNode(tb testing.TB, shards int, tc tracing.Config, mut ...func(*core.Options)) *idea.LiveNode {
	ln, err := cluster.Listen(cluster.Topology{
		Nodes:     []id.NodeID{1},
		TopLayers: map[id.FileID][]id.NodeID{},
		Shards:    shards,
		WalDir:    tb.TempDir(),
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.DisableGossip = true
			o.Tracing = tc
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

// parallelWriteOps drives the multi-file parallel-writer scenario through
// the real sharded runtime: one live transport node with the given shard
// count, `files` shared files, and `writers` concurrent issuers pushing
// writes (each triggering the full store-apply + detect path) through
// InjectFile. It returns steady ops/sec. With shards == 1 this is exactly
// the historical single-event-loop node — the baseline the sharded
// executor is measured against.
func parallelWriteOps(b testing.TB, shards, files, writers, opsPerWriter int) float64 {
	ln := newBurstNode(b, shards)
	defer ln.Close()
	return burstWrites(b, ln, files, writers, opsPerWriter)
}

// burstWrites issues the write burst against an already running node and
// returns steady ops/sec. Completion is tracked with a striped telemetry
// counter instead of a WaitGroup: a shared wg counter would put one
// contended atomic back on every op and measure the harness, not the
// runtime.
func burstWrites(_ testing.TB, ln *idea.LiveNode, files, writers, opsPerWriter int) float64 {
	fileIDs := make([]id.FileID, files)
	for i := range fileIDs {
		fileIDs[i] = id.FileID(fmt.Sprintf("bench-%03d", i))
	}
	payload := []byte("parallel-writer-payload")
	var issuers sync.WaitGroup
	var done telemetry.Counter
	total := int64(writers * opsPerWriter)
	start := time.Now()
	for w := 0; w < writers; w++ {
		issuers.Add(1)
		go func(w int) {
			defer issuers.Done()
			for i := 0; i < opsPerWriter; i++ {
				f := fileIDs[(i*writers+w)%len(fileIDs)]
				ln.InjectFile(f, func(e env.Env) {
					ln.N.Write(e, f, "bench", payload, 0)
					done.Inc()
				})
			}
		}(w)
	}
	issuers.Wait()
	for done.Value() < total {
		time.Sleep(50 * time.Microsecond)
	}
	return float64(total) / time.Since(start).Seconds()
}

// percentileMs returns the q-quantile of ds in milliseconds
// (nearest-rank on the sorted slice; 0 when empty).
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

// traceVisibilityStats drives a fully-sampled (SampleEvery=1) hint-based
// cluster under virtual time and derives the visibility SLO numbers from
// the merged causal timelines: write-visibility latency (inject → last
// apply on any replica) and resolution latency (resolve.start →
// resolve.verdict) percentiles. Virtual time makes these deterministic
// for a given seed, so the bench gate can hold them to a tight tolerance.
func traceVisibilityStats() (visP50, visP95, visP99, resolveP99 float64, traced int) {
	cl := experiments.NewCluster(experiments.ClusterConfig{
		Seed: 11, Nodes: 12, Writers: 4, Gossip: true,
		Mutate: func(_ id.NodeID, o *core.Options) {
			o.Tracing = tracing.Config{SampleEvery: 1, BufferPerStripe: 8192}
		},
	})
	cl.Warmup()
	for _, w := range cl.Writers {
		if err := cl.Nodes[w].SetHint(experiments.SharedFile, 0.95); err != nil {
			panic(err)
		}
	}
	cl.ScheduleUniformWrites(5*time.Second, 200*time.Second)
	cl.C.RunFor(230 * time.Second)

	dumps := make([]tracing.Dump, 0, len(cl.All))
	for _, nid := range cl.All {
		dumps = append(dumps, tracing.DumpOf(cl.Nodes[nid].Tracer(), 0, ""))
	}
	var vis, res []time.Duration
	for _, tl := range tracing.Merge(dumps) {
		if d, ok := tl.Visibility(); ok {
			vis = append(vis, d)
		}
		if d, ok := tl.Resolution(); ok {
			res = append(res, d)
		}
	}
	return percentileMs(vis, 0.50), percentileMs(vis, 0.95), percentileMs(vis, 0.99),
		percentileMs(res, 0.99), len(vis)
}

// joinCatchupSeconds measures the dynamic-membership bootstrap: a seed
// node holding an `updates`-deep replica (each update carrying `payload`
// bytes of data; 0 = metadata-only), and a joiner started with nothing
// but the seed's address. It returns the wall-clock seconds from the
// joiner's start until its replica vector is equal to the seed's — the
// join handshake plus the chunked snapshot state transfer. Both nodes
// run with the group-commit WAL attached, like production.
func joinCatchupSeconds(b *testing.B, updates, writers, payload int) float64 {
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

	start := time.Now()
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
			return time.Since(start).Seconds()
		}
		if time.Now().After(deadline) {
			b.Fatalf("joiner never converged to the seed's %d-update replica", updates)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// encodeAllocsPerOp measures steady-state allocations of the pooled
// encode path on the transport's hottest frame shape (an update-bearing
// Inform). The gate holds this at exactly 0: any allocation on the hot
// frame is a regression.
func encodeAllocsPerOp(b *testing.B) float64 {
	us := make([]wire.Update, 8)
	for i := range us {
		us[i] = wire.Update{File: "bench", Writer: 1, Seq: i + 1, At: 1e9, Meta: 5,
			Op: "put", Data: []byte("0123456789abcdef0123456789abcdef")}
	}
	e := wire.Envelope{From: 1, To: 2, Msg: wire.Inform{File: "bench", Token: 7,
		Winner: 2, VV: vv.New(), Updates: us}}
	// Warm the pool so the measurement sees steady state, not first-use.
	for i := 0; i < 16; i++ {
		f, err := wire.EncodeFrame(e, 4)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
	return testing.AllocsPerRun(1000, func() {
		f, err := wire.EncodeFrame(e, 4)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	})
}

// BenchmarkCoreBaseline measures the bounded-state headline numbers — the
// gossip digest wire size and Replica.MissingFrom cost at 50k updates per
// replica, the speedup over the seed's full-scan anti-entropy, the
// sharded runtime's multi-file write throughput vs the single-loop
// baseline (64 files × 16 writers, shard counts 1/2/4/8), and the
// dynamic-membership snapshot bootstrap time into a 50k-update cluster —
// and writes them to BENCH_core.json, which `idea-bench -gate` diffs
// against the committed BENCH_baseline.json in CI:
//
//	go test -run '^$' -bench CoreBaseline -benchtime 100x .
func BenchmarkCoreBaseline(b *testing.B) {
	const (
		updates = 50_000
		writers = 4
		missing = 4 // per-writer suffix the remote lacks
	)
	rep := store.NewReplica("bench", 1)
	seqs := make(map[id.NodeID]int, writers)
	for i := 0; i < updates; i++ {
		w := id.NodeID(i%writers + 2)
		seqs[w]++
		rep.Apply(wire.Update{File: "bench", Writer: w, Seq: seqs[w], At: vv.Stamp(i+1) * 1e6})
	}
	remote := rep.Vector()
	for w, n := range seqs {
		remote.TruncateWriter(w, n-missing)
	}

	// Digest wire size: with bounded vector windows this is flat in
	// total update count.
	sizer := wire.NewSizer()
	digest := wire.GossipDigest{File: "bench", Origin: 1, Round: 1, TTL: 3, VV: rep.Vector().Trimmed(8)}
	digestBytes := sizer.Size(wire.Envelope{From: 1, To: 2, Msg: digest})

	var got []wire.Update
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got = rep.MissingFrom(remote)
	}
	b.StopTimer()
	if len(got) != writers*missing {
		b.Fatalf("missing = %d, want %d", len(got), writers*missing)
	}
	indexedNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)

	// Reference: the seed's full-scan shape on the same data, sampled for
	// a fixed wall budget (it is orders of magnitude slower).
	log := rep.Log()
	legacyRounds := 0
	legacyStart := time.Now()
	for time.Since(legacyStart) < 50*time.Millisecond {
		linearMissingFrom(log, remote)
		legacyRounds++
	}
	legacyNs := float64(time.Since(legacyStart).Nanoseconds()) / float64(legacyRounds)

	// Sharded-runtime headline: multi-file write/detect throughput on one
	// live node across shard counts, 16 concurrent writers over 64 files
	// through the real transport. Every count's throughput and its
	// speedup over the single-loop baseline go into BENCH_core.json; the
	// 4-shard ratio is the headline the bench gate tracks. Parallel
	// speedup is only observable with enough cores — the recorded
	// gomaxprocs tells the gate whether to enforce the speedup floor.
	const (
		benchFiles   = 64
		benchWriters = 16
		opsPerWriter = 8_000
	)
	shardCounts := []int{1, 2, 4, 8}
	opsByShards := make(map[int]float64, len(shardCounts))
	for _, sc := range shardCounts {
		opsByShards[sc] = parallelWriteOps(b, sc, benchFiles, benchWriters, opsPerWriter)
	}
	opsSingle := opsByShards[1]
	const headlineShards = 4
	opsHeadline := opsByShards[headlineShards]

	// Tracing overhead headline: the same 4-shard burst with 1% write
	// sampling, against the tracing-off run just measured. A ratio near
	// 1.0 backs the "near-zero cost" claim; the gate holds it.
	traced1pc := newTracedBurstNode(b, headlineShards, tracing.Config{SampleEvery: 100})
	opsTraced := burstWrites(b, traced1pc, benchFiles, benchWriters, opsPerWriter)
	traced1pc.Close()
	tracingRatio := opsTraced / opsHeadline

	// Health overhead headline: the headline burst already runs with the
	// health engine on (its zero-value default); measure the same burst
	// with evaluation disabled and hold the on/off ratio near 1.0 — the
	// always-on claim is only honest if always-on is near-free.
	healthOff := newTracedBurstNode(b, headlineShards, tracing.Config{},
		func(o *core.Options) { o.Health = health.Config{Disable: true} })
	opsHealthOff := burstWrites(b, healthOff, benchFiles, benchWriters, opsPerWriter)
	healthOff.Close()
	healthRatio := opsHeadline / opsHealthOff

	// Visibility SLO headline: merged-timeline write-visibility and
	// resolution latency percentiles from a fully-sampled emulation.
	visP50, visP95, visP99, resolveP99, traced := traceVisibilityStats()

	// Dynamic-membership headline: seed-address-only join + snapshot
	// bootstrap into the same 50k-update scenario (metadata-only updates).
	joinSecs := joinCatchupSeconds(b, updates, writers, 0)

	// Snapshot-throughput headline: the same bootstrap with payload-bearing
	// updates — 1024 × 16KiB ≈ 16MiB, larger than both the per-chunk window
	// and the transport's maximum frame, so only the chunked streaming path
	// can move it. Reported as payload MB per second of join wall-clock.
	const (
		snapUpdates = 1024
		snapPayload = 16 << 10
	)
	snapSecs := joinCatchupSeconds(b, snapUpdates, 3, snapPayload)
	snapMBps := float64(snapUpdates) * float64(snapPayload) / float64(1<<20) / snapSecs

	// Zero-copy headline: steady-state allocations of the pooled encode
	// path. The gate tolerates exactly 0.
	encodeAllocs := encodeAllocsPerOp(b)

	b.ReportMetric(visP99, "visibility-p99-ms")
	b.ReportMetric(tracingRatio, "traced-ops-ratio")
	b.ReportMetric(healthRatio, "health-ops-ratio")
	b.ReportMetric(joinSecs, "join-catchup-s")
	b.ReportMetric(snapMBps, "snapshot-MB/s")
	b.ReportMetric(encodeAllocs, "encode-allocs/op")
	b.ReportMetric(float64(digestBytes), "digest-bytes")
	b.ReportMetric(indexedNs, "missingfrom-ns")
	b.ReportMetric(legacyNs/indexedNs, "speedup-x")
	for _, sc := range shardCounts {
		b.ReportMetric(opsByShards[sc], fmt.Sprintf("par-write-ops/s-%dshard", sc))
	}
	b.ReportMetric(opsHeadline/opsSingle, "shard-speedup-x")

	baseline := map[string]any{
		"updates_per_replica":              updates,
		"writers":                          writers,
		"missing_per_writer":               missing,
		"vv_window":                        vv.DefaultWindow,
		"digest_stamps":                    8,
		"digest_encode_bytes":              digestBytes,
		"missing_from_ns_indexed":          indexedNs,
		"missing_from_ns_full_scan":        legacyNs,
		"missing_from_speedup_x":           legacyNs / indexedNs,
		"parallel_write_files":             benchFiles,
		"parallel_write_writers":           benchWriters,
		"parallel_write_shards":            headlineShards,
		"parallel_write_speedup_x":         opsHeadline / opsSingle,
		"join_catchup_seconds":             joinSecs,
		"snapshot_payload_mb":              float64(snapUpdates) * float64(snapPayload) / float64(1<<20),
		"snapshot_mb_per_sec":              snapMBps,
		"encode_allocs_per_op":             encodeAllocs,
		"write_visibility_ms_p50":          visP50,
		"write_visibility_ms_p95":          visP95,
		"write_visibility_ms_p99":          visP99,
		"resolve_latency_ms_p99":           resolveP99,
		"traced_writes":                    traced,
		"tracing_sampled_throughput_ratio": tracingRatio,
		"health_overhead_throughput_ratio": healthRatio,
		"gomaxprocs":                       runtime.GOMAXPROCS(0),
		"num_cpu":                          runtime.NumCPU(),
		"go":                               runtime.Version(),
	}
	for _, sc := range shardCounts {
		baseline[fmt.Sprintf("parallel_write_ops_per_sec_shards_%d", sc)] = opsByShards[sc]
		if sc > 1 {
			baseline[fmt.Sprintf("parallel_write_speedup_x_shards_%d", sc)] = opsByShards[sc] / opsSingle
		}
	}
	data, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_core.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFig7aHint95 regenerates Fig. 7(a): 40 nodes, 4 writers,
// updates every 5 s for 100 s, hint level 95 %.
func BenchmarkFig7aHint95(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig7a(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("lowest user level"), "lowest-level")
		b.ReportMetric(r.Rec.Scalar("resolutions"), "resolutions")
	}
}

// BenchmarkFig7bHint85 regenerates Fig. 7(b): hint level 85 %.
func BenchmarkFig7bHint85(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig7b(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("lowest user level"), "lowest-level")
		b.ReportMetric(r.Rec.Scalar("resolutions"), "resolutions")
	}
}

// BenchmarkFig8HintChange regenerates Fig. 8: 200 s with the hint reset
// from 95 % to 90 % at t = 100 s.
func BenchmarkFig8HintChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig8(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("lowest level before reset"), "floor-95")
		b.ReportMetric(r.Rec.Scalar("lowest level after reset"), "floor-90")
	}
}

// BenchmarkTable2PhaseBreakdown regenerates Table 2: the two-phase delay
// breakdown of active resolution with a 4-node top layer.
func BenchmarkTable2PhaseBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable2(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("phase1 ms (fast)"), "phase1-ms")
		b.ReportMetric(r.Rec.Scalar("phase2 ms (fast)"), "phase2-ms")
		b.ReportMetric(r.Rec.Scalar("per-member ms"), "per-member-ms")
	}
}

// BenchmarkFig9Scalability regenerates Fig. 9: measured active-resolution
// delay for top layers of 2..10 members vs the Formula 2 extrapolation.
func BenchmarkFig9Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig9(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("delay at n=10 ms"), "delay-n10-ms")
	}
}

// BenchmarkFig10Automatic regenerates Fig. 10: the automatic booking
// system at 20 s and 40 s background-resolution frequencies.
func BenchmarkFig10Automatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig10Table3(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("mean level @20s"), "level-20s")
		b.ReportMetric(r.Rec.Scalar("mean level @40s"), "level-40s")
	}
}

// BenchmarkTable3Overhead regenerates Table 3: resolution-message
// overhead of the two Fig. 10 runs.
func BenchmarkTable3Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig10Table3(int64(i + 100))
		b.ReportMetric(r.Rec.Scalar("messages @20s"), "msgs-20s")
		b.ReportMetric(r.Rec.Scalar("messages @40s"), "msgs-40s")
	}
}

// BenchmarkFormulaDerivations regenerates the §6.2/§6.3.2 formula
// parameters: the per-member cost behind Formulas 2/3 and the per-round
// message count behind Formulas 4/5.
func BenchmarkFormulaDerivations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2 := experiments.RunTable2(int64(i + 1))
		f10 := experiments.RunFig10Table3(int64(i + 1))
		b.ReportMetric(t2.Rec.Scalar("per-member ms"), "formula2-slope-ms")
		b.ReportMetric(f10.Rec.Scalar("msgs per round (formula 5)"), "formula5-msgs")
		b.ReportMetric(f10.Rec.Scalar("optimal rate (rounds/s)"), "formula4-rate")
	}
}

// BenchmarkFig2Tradeoff measures the Fig. 2 positioning: IDEA between
// optimistic and strong consistency on both axes.
func BenchmarkFig2Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig2Tradeoff(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("IDEA (hint 95%) messages"), "idea-msgs")
		b.ReportMetric(r.Rec.Scalar("optimistic (AE 30s) messages"), "opt-msgs")
		b.ReportMetric(r.Rec.Scalar("strong (primary copy) messages"), "strong-msgs")
	}
}

// BenchmarkTopLayerCapture measures the §4.3 top-layer capture claim
// (>95 %).
func BenchmarkTopLayerCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTopLayerCapture(int64(i+1), 0.05)
		b.ReportMetric(r.Rec.Scalar("capture rate"), "capture")
	}
}

// BenchmarkRollback measures the §4.4.2 rollback path: discrepancy delay
// and operations undone.
func BenchmarkRollback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunRollback(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("rollback delay s"), "delay-s")
		b.ReportMetric(r.Rec.Scalar("undone ops"), "undone")
	}
}

// BenchmarkBoundsLearning measures the §5.2 undersell/oversell frequency
// bounds learning.
func BenchmarkBoundsLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunBoundsLearning(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("final period s"), "period-s")
	}
}

// BenchmarkParallelPhase2 measures the §6.2 parallel-phase-2 ablation:
// sequential vs parallel collect at top-layer sizes up to 10.
func BenchmarkParallelPhase2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunParallelPhase2(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("sequential @10 ms"), "seq-n10-ms")
		b.ReportMetric(r.Rec.Scalar("parallel @10 ms"), "par-n10-ms")
	}
}

// BenchmarkTTLTradeoff measures the §4.4.2 accuracy/responsiveness/cost
// trade-off of the TTL-bounded bottom-layer sweep.
func BenchmarkTTLTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTTLTradeoff(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("ttl1 digests"), "digests-ttl1")
		b.ReportMetric(r.Rec.Scalar("ttl6 digests"), "digests-ttl6")
	}
}

// BenchmarkRefSelectors compares reference-consistent-state choices.
func BenchmarkRefSelectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunRefSelectors(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("highest-id (paper) worst"), "paper-worst")
		b.ReportMetric(r.Rec.Scalar("merged worst"), "merged-worst")
	}
}

// BenchmarkSkewSensitivity validates the NTP clock assumption.
func BenchmarkSkewSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunSkewSensitivity(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("skew 0s worst"), "skew0-worst")
		b.ReportMetric(r.Rec.Scalar("skew 20s worst"), "skew20-worst")
	}
}

// BenchmarkWorkloadSensitivity re-runs the hint experiment under Poisson
// and bursty schedules — the §6 uniform-workload assumption is not
// load-bearing.
func BenchmarkWorkloadSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunWorkloadSensitivity(int64(i + 1))
		b.ReportMetric(r.Rec.Scalar("uniform (paper) floor"), "uniform-floor")
		b.ReportMetric(r.Rec.Scalar("poisson floor"), "poisson-floor")
	}
}

// BenchmarkDetectionRoundTrip microbenchmarks the detect(update) hot path
// on a 4-writer top layer (one full write+detect cycle under emulated
// WAN latency).
func BenchmarkDetectionRoundTrip(b *testing.B) {
	r := experiments.RunHint(experiments.HintConfig{
		Seed: 1, Nodes: 8, Duration: 20 * time.Second, Hint: 0, // no resolution
	})
	_ = r
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunHint(experiments.HintConfig{
			Seed: int64(i + 1), Nodes: 8, Duration: 20 * time.Second, Hint: 0,
		})
	}
}
