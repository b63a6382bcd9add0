package main

import (
	"os"
	"runtime"
	"sort"
	"time"

	"idea/internal/quantify"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

// probes are the layer probes: after a traced pass, each package's exported
// functions are timed directly on inputs that pass produced — the messages
// the interposer captured, and the end-of-run replicas and vectors — so a
// layer has a cost figure that no queue, socket or scheduler is mixed into.
type probes struct {
	applyNS, missingFromNS, logCopyNS, vectorCloneNS float64
	applyN, missingFromN, logCopyN, vectorCloneN     int
	walAppendNS                                      float64
	walAppendN                                       int
	encodeNS, decodeNS, encodeAllocs, decodeAllocs   float64
	bytesPerMsg                                      float64
	wireN                                            int
	compareNS, tripleNS, levelNS                     float64
	vvN                                              int
}

// The sinks keep probe results alive so the compiler cannot drop the calls
// (typed, so storing into them allocates nothing).
var (
	sink      any
	sinkOrder vv.Ordering
	sinkTrip  vv.Triple
	sinkLevel float64
)

// timeOp calls fn (which performs `per` operations per call) until budget
// has elapsed and returns ns and heap allocations per operation.
func timeOp(budget time.Duration, per int, fn func()) (nsPerOp, allocsPerOp float64, ops int) {
	if per <= 0 {
		return 0, 0, 0
	}
	fn() // warm caches and pools outside the timed region
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	calls := 0
	for time.Since(start) < budget {
		fn()
		calls++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	ops = calls * per
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(ms1.Mallocs-ms0.Mallocs) / float64(ops), ops
}

// probeCount is how many timeOp probes runProbes makes; callers split their
// probe budget evenly between them.
const probeCount = 9

// walProbeMax bounds the records one wal_append probe call journals, so the
// probe's file stays small.
const walProbeMax = 2048

// runProbes times each layer for `each` on what the traced pass m left
// behind. Scratch files go under outDir.
func runProbes(m *measured, each time.Duration, outDir string) (probes, error) {
	var p probes

	// store: the deepest file's replica on the first node holding it.
	if len(m.replicas) > 0 && m.replicas[0].Len() > 0 {
		rep := m.replicas[0]
		log := rep.Log()
		p.applyNS, _, p.applyN = timeOp(each, len(log), func() {
			r := store.NewReplica(rep.File, rep.Owner)
			r.ApplyAll(log)
			sink = r
		})
		// A peer a few updates behind every writer: the shape a collect
		// request has in steady state.
		behind := rep.Vector()
		for w, e := range behind.Entries {
			if e.Count > 4 {
				behind.TruncateWriter(w, e.Count-4)
			}
		}
		p.missingFromNS, _, p.missingFromN = timeOp(each, 1, func() { sink = rep.MissingFrom(behind) })
		p.logCopyNS, _, p.logCopyN = timeOp(each, 1, func() { sink = rep.Log() })
		p.vectorCloneNS, _, p.vectorCloneN = timeOp(each, 1, func() { sink = rep.Vector() })

		dir, err := os.MkdirTemp(outDir, "walprobe-*")
		if err != nil {
			return p, err
		}
		defer os.RemoveAll(dir)
		wal, err := store.OpenWAL(dir)
		if err != nil {
			return p, err
		}
		wal.SetGroupCommit(8)
		batch := log
		if len(batch) > walProbeMax {
			batch = batch[:walProbeMax]
		}
		var appendErr error
		start := time.Now()
		for _, u := range batch {
			if err := wal.AppendUpdate(u); err != nil {
				appendErr = err
			}
		}
		p.walAppendNS, p.walAppendN = float64(time.Since(start).Nanoseconds())/float64(len(batch)), len(batch)
		if err := wal.Close(); err != nil && appendErr == nil {
			appendErr = err
		}
		if appendErr != nil {
			return p, appendErr
		}
	}

	// wire: the captured message mix.
	if m.tracer != nil {
		var envs []wire.Envelope
		var vecs []*vv.Vector
		kinds := make([]string, 0, len(m.tracer.capture))
		for kind := range m.tracer.capture {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			es := m.tracer.capture[kind]
			envs = append(envs, es...)
			if kind == "detect.req" {
				for _, e := range es {
					vecs = append(vecs, e.Msg.(wire.DetectRequest).VV)
				}
			}
		}
		if len(envs) > 0 {
			var encErr error
			p.encodeNS, p.encodeAllocs, p.wireN = timeOp(each, len(envs), func() {
				for _, e := range envs {
					f, err := wire.EncodeFrame(e, 4)
					if err != nil {
						encErr = err
						continue
					}
					f.Release()
				}
			})
			frames := make([][]byte, 0, len(envs))
			total := 0
			for _, e := range envs {
				b, err := wire.Encode(e)
				if err != nil {
					encErr = err
					continue
				}
				frames = append(frames, b)
				total += len(b)
			}
			if encErr != nil {
				return p, encErr
			}
			var decErr error
			p.decodeNS, p.decodeAllocs, _ = timeOp(each, len(frames), func() {
				for _, b := range frames {
					e, err := wire.Decode(b)
					if err != nil {
						decErr = err
					}
					sink = e.Msg
				}
			})
			if decErr != nil {
				return p, decErr
			}
			p.bytesPerMsg = float64(total) / float64(len(frames))
		}

		// vv, quantify: the vectors detection actually shipped, each
		// scored against its successor; a workload that shipped none
		// (no peers) falls back to its end-of-run vectors.
		for _, r := range m.replicas {
			vecs = append(vecs, r.Vector())
		}
		if n := len(vecs); n > 0 {
			q := quantify.Default()
			p.compareNS, _, p.vvN = timeOp(each, n, func() {
				for i, v := range vecs {
					sinkOrder = vv.Compare(v, vecs[(i+1)%n])
				}
			})
			p.tripleNS, _, _ = timeOp(each, n, func() {
				for i, v := range vecs {
					sinkTrip = vv.TripleAgainst(v, vecs[(i+1)%n])
				}
			})
			p.levelNS, _, _ = timeOp(each, n, func() {
				for i, v := range vecs {
					_, sinkLevel = q.Score(v, vecs[(i+1)%n])
				}
			})
		}
	}
	return p, nil
}
