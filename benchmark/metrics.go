package main

import (
	"fmt"
	"strings"
)

// metric is one reported value. Unit, direction and bound live in
// BENCHMARK.json and are joined on Name when results are printed or
// compared; N is the number of samples behind the value (0 when the value
// is a ratio of counts).
type metric struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
	// Note flags a tail reported below p99 because the sample was too
	// small to support it.
	Note string `json:"note,omitempty"`
}

type metricSet struct {
	workload string
	list     []metric
}

func (s *metricSet) add(name string, v float64, n int) {
	s.list = append(s.list, metric{Name: name, Workload: s.workload, Value: v, N: n})
}

// latencySlices is how many equal slices of the scored window a latency is
// summarised over; rateSlices is the same for throughput.
const (
	latencySlices = 10
	rateSlices    = 100
)

// addSliced adds <base>_p50 (and <base>_p99) the steady way: the scored
// window is cut into latencySlices equal slices by due instant, each slice
// is summarised on its own, and the interquartile mean over slices is
// reported. One stalled second (an fsync sweep on a busy disk, a GC cycle, a
// noisy neighbour) then moves one slice, not the run's p99.
func (s *metricSet) addSliced(base string, samples []sample, from, to int64, div float64, tail bool) {
	var p50s, p99s []float64
	tailP := 0.99
	for _, slice := range cut(samples, from, to, latencySlices) {
		if len(slice) < minBeyond {
			continue
		}
		d := summarize(slice)
		p50s, p99s = append(p50s, d.P50/div), append(p99s, d.Tail/div)
		if d.TailP < tailP {
			tailP = d.TailP
		}
	}
	if len(p50s) == 0 && len(samples) > 0 {
		// Too few samples to slice (a very short window): pool them.
		all := make([]float64, len(samples))
		for i, sm := range samples {
			all[i] = float64(sm.ns)
		}
		d := summarize(all)
		p50s, p99s, tailP = []float64{d.P50 / div}, []float64{d.Tail / div}, d.TailP
	}
	p50, p99 := 0.0, 0.0
	if len(p50s) > 0 {
		p50, p99 = iqm(p50s), iqm(p99s)
	}
	s.add(base+"_p50", p50, len(samples))
	if tail {
		s.add(base+"_p99", p99, len(samples))
		if len(p50s) > 0 && tailP != 0.99 {
			s.list[len(s.list)-1].Note = fmt.Sprintf("slices support only p%g", tailP*100)
		}
	}
}

// cut splits samples into n equal slices of [from, to) by due instant.
func cut(samples []sample, from, to int64, n int) [][]float64 {
	out := make([][]float64, n)
	width := float64(to-from) / float64(n)
	for _, sm := range samples {
		if i := int(float64(sm.due-from) / width); i >= 0 && i < n {
			out[i] = append(out[i], float64(sm.ns))
		}
	}
	return out
}

// addDist adds <base>_p50 (and <base>_p99) of a plain pooled sample scaled
// by div — for the per-layer distributions, which need no gate.
func (s *metricSet) addDist(base string, values []float64, div float64, tail bool) {
	d := summarize(values)
	p50, p99 := 0.0, 0.0
	if d.N > 0 {
		p50, p99 = d.P50/div, d.Tail/div
	}
	s.add(base+"_p50", p50, d.N)
	if tail {
		s.add(base+"_p99", p99, d.N)
		if d.N > 0 && d.TailP != 0.99 {
			s.list[len(s.list)-1].Note = fmt.Sprintf("sample supports only p%g", d.TailP*100)
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the gated metrics from an untraced pass. Every one of
// them is defined — and non-zero — on every workload.
func endToEnd(m *measured) []metric {
	s := &metricSet{workload: m.sp.Name}
	s.add("setup_s", median(m.setupS), len(m.setupS))
	s.add("ops_per_s", iqm(m.sliceOps), m.ops())
	// op: what a client waits for — a write's verdict or a read's log.
	op := append(append([]sample(nil), m.tl.verdictNS...), m.cs.readNS...)
	s.addSliced("op_ms", op, m.winFrom, m.winTo, 1e6, false)
	s.addSliced("verdict_ms", m.tl.verdictNS, m.winFrom, m.winTo, 1e6, true)
	s.addSliced("visibility_ms", m.tl.visibleNS, m.winFrom, m.winTo, 1e6, true)
	return s.list
}

// decayRatio is ops/s over the last quarter of the scored window divided by
// ops/s over the first quarter.
func decayRatio(m *measured) float64 {
	from, to := m.winFrom, m.winTo
	q := (to - from) / 4
	first, last := 0, 0
	count := func(samples []sample) {
		for _, s := range samples {
			switch {
			case s.due < from+q:
				first++
			case s.due >= to-q:
				last++
			}
		}
	}
	count(m.tl.verdictNS)
	count(m.cs.readNS)
	return ratio(float64(last), float64(first))
}

// stallShare is the share of throughput slices that ran below half the
// run's reported rate: the slices a stall (an fsync sweep, a GC cycle) landed
// in, which the interquartile mean keeps out of ops_per_s.
func stallShare(sliceOps []float64) float64 {
	half, stalled := iqm(sliceOps)/2, 0
	for _, r := range sliceOps {
		if r < half {
			stalled++
		}
	}
	return ratio(float64(stalled), float64(len(sliceOps)))
}

// wholeSystem derives the ungated whole-system metrics from the untraced
// reference pass of a traced run: the end-to-end numbers that are not
// defined on every workload (and so cannot be gated), plus accounting.
func wholeSystem(s *metricSet, m *measured) {
	writes := float64(len(m.tl.verdictNS))
	s.addSliced("resolve_ms", m.tl.resolveNS, m.winFrom, m.winTo, 1e6, true)
	s.addSliced("read_ms", m.cs.readNS, m.winFrom, m.winTo, 1e6, true)
	s.add("write_ops_per_s", ratio(writes, m.windowS), int(writes))
	s.add("read_ops_per_s", ratio(float64(m.cs.reads), m.windowS), m.cs.reads)
	s.add("msgs_per_write", ratio(float64(m.msgs), writes), int(m.msgs))
	s.add("bytes_per_write", ratio(float64(m.bytes), writes), int(m.msgs))
	s.add("sim_events_per_s", ratio(float64(m.eventsWindow), m.windowS), m.eventsWindow)
	s.add("failed_share", ratio(float64(m.failed), float64(m.attempted)), m.attempted)
	s.add("core.throughput_decay_ratio", decayRatio(m), m.ops())
	s.add("core.stall_share", stallShare(m.sliceOps), len(m.sliceOps))
	s.add("store.heap_bytes_per_update", m.heapPerUpdate, m.updatesHeld)
}

// perLayer derives the ungated metrics of a traced run: ref is the untraced
// reference pass, tr the interposed pass of the same size, pr the layer
// probes run on what the interposed pass captured.
func perLayer(ref, tr *measured, pr probes) []metric {
	s := &metricSet{workload: tr.sp.Name}
	wholeSystem(s, ref)
	s.add("trace_overhead_ratio", ratio(ratio(float64(tr.ops()), tr.windowS), ratio(float64(ref.ops()), ref.windowS)), tr.ops())

	t := tr.tracer
	tot := t.totals(tr.spanFrom, tr.spanTo)
	writes := float64(len(tr.tl.verdictNS))
	wallNS := float64(tr.spanTo - tr.spanFrom)
	sent := func(prefix string) (count, bytes float64) {
		for kind, st := range tr.sends {
			if strings.HasPrefix(kind, prefix) {
				count += float64(st.count)
				bytes += float64(st.bytes)
			}
		}
		return count, bytes
	}

	// core
	s.addDist("core.inject_wait_us", tr.cs.injectWaitNS, 1e3, true)
	s.addDist("core.write_call_us", tot.byName["core.write_call"], 1e3, false)
	s.addDist("core.read_call_us", tot.byName["core.read_call"], 1e3, false)
	s.add("core.busy_share", ratio(float64(tot.topNS), wallNS*float64(tr.executors)), tot.handlers)

	// detect
	dSent, _ := sent("detect.")
	s.addDist("detect.recv_us", tot.recvByLayer["detect"], 1e3, false)
	s.add("detect.msgs_per_write", ratio(dSent, writes), int(dSent))
	s.add("detect.timeouts", float64(tr.counters["detect.timeouts_total"]), int(tr.counters["detect.probes_total"]))
	s.add("detect.conflict_ratio", ratio(float64(tr.tl.conflicts), float64(tr.tl.verdicts)), tr.tl.verdicts)

	// resolve
	rSent, _ := sent("resolve.")
	sessions := float64(tr.counters["resolve.active_total"] + tr.counters["resolve.background_total"] + tr.counters["resolve.aborted_total"])
	s.addDist("resolve.recv_us", tot.recvByLayer["resolve"], 1e3, false)
	s.add("resolve.sessions_per_write", ratio(sessions, writes), int(sessions))
	s.add("resolve.msgs_per_write", ratio(rSent, writes), int(rSent))
	s.addDist("resolve.phase1_ms", tr.tl.phase1MS, 1, false)
	s.addDist("resolve.phase2_ms", tr.tl.phase2MS, 1, false)
	s.add("resolve.wasted_ratio", ratio(float64(tr.counters["resolve.aborted_total"]+tr.counters["resolve.backoffs_total"]), sessions), int(sessions))
	s.addDist("resolve.updates_per_inform", t.informs, 1, false)

	// gossip
	gSent, gBytes := sent("gossip.")
	s.addDist("gossip.recv_us", tot.recvByLayer["gossip"], 1e3, false)
	s.addDist("gossip.timer_us", tot.byName["gossip.round"], 1e3, false)
	s.add("gossip.msgs_per_s", ratio(gSent, tr.virtualS), int(gSent))
	s.add("gossip.bytes_per_msg", ratio(gBytes, gSent), int(gSent))

	// store and its WAL
	s.add("store.apply_ns_op", pr.applyNS, pr.applyN)
	s.add("store.missing_from_ns_op", pr.missingFromNS, pr.missingFromN)
	s.add("store.log_copy_ns_op", pr.logCopyNS, pr.logCopyN)
	s.add("store.vector_clone_ns_op", pr.vectorCloneNS, pr.vectorCloneN)
	s.add("store.log_depth_end", float64(tr.logDepthEnd), 0)
	s.add("store.wal_append_ns_op", pr.walAppendNS, pr.walAppendN)
	s.addDist("store.wal_sync_ms", tot.byName["core.wal.sync"], 1e6, false)
	s.add("store.wal_bytes_per_update", tr.walBytesPerUpdate, 0)
	s.add("store.wal_fsyncs_per_write", ratio(float64(tr.histCounts["store.wal_fsync_ms"]), writes), int(tr.histCounts["store.wal_fsync_ms"]))

	// wire
	s.add("wire.encode_ns_op", pr.encodeNS, pr.wireN)
	s.add("wire.decode_ns_op", pr.decodeNS, pr.wireN)
	s.add("wire.encode_allocs_op", pr.encodeAllocs, pr.wireN)
	s.add("wire.decode_allocs_op", pr.decodeAllocs, pr.wireN)
	s.add("wire.bytes_per_msg", pr.bytesPerMsg, pr.wireN)

	// transport
	allSent, _ := sent("")
	frames := float64(tr.counters["transport.frames_sent_total"])
	hops := summarize(t.hopNS)
	hop50, hop99 := 0.0, 0.0
	if hops.N > 0 {
		hop50, hop99 = hops.P50/1e3, hops.Tail/1e3
	}
	s.add("transport.hop_us_p50", hop50, hops.N)
	s.add("transport.hop_us_p99", hop99, hops.N)
	s.add("transport.frames_per_write", ratio(frames, writes), int(frames))
	s.add("transport.msgs_per_frame", ratio(allSent, frames), int(allSent))
	s.add("transport.dropped_frames", float64(tr.dropped), 0)

	// simnet
	s.add("simnet.events_per_write", ratio(float64(tr.eventsWindow), writes), tr.eventsWindow)
	simHandlerNS, simSelfNS := 0.0, 0.0
	if tr.sp.Sim {
		simHandlerNS = ratio(float64(tot.topNS), float64(tr.eventsWindow))
		simSelfNS = ratio(wallNS-float64(tot.topNS), float64(tr.eventsWindow))
	}
	s.add("simnet.handler_ns_per_event", simHandlerNS, tr.eventsWindow)
	s.add("simnet.self_ns_per_event", simSelfNS, tr.eventsWindow)

	// vv, quantify
	s.add("vv.compare_ns_op", pr.compareNS, pr.vvN)
	s.add("vv.triple_ns_op", pr.tripleNS, pr.vvN)
	s.add("quantify.level_ns_op", pr.levelNS, pr.vvN)

	// health
	health := tot.byName["core.health.tick"]
	s.addDist("health.timer_us", health, 1e3, false)
	s.add("health.busy_share", ratio(float64(tot.busyNS["health"]), wallNS*float64(tr.executors)), len(health))
	return s.list
}
