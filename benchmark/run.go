package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"idea/internal/id"
	"idea/internal/store"
	"idea/internal/telemetry"
	"idea/internal/vv"
)

// measured is everything one pass over a workload observed: the raw
// material of both metric lists.
type measured struct {
	sp      spec
	setupS  []float64 // wall seconds of each set-up (build + warm-up)
	windowS float64   // wall seconds of the scored window
	// virtualS is the scored window in the workload's own clock (equal to
	// windowS on the live workloads).
	virtualS float64

	// sliceOps is scored ops per wall second over each of the window's
	// slices (rateSlices equal slices on live, one per write period on sim);
	// ops_per_s is its interquartile mean, so a stalled slice does not move it.
	sliceOps []float64

	tl tally
	// winFrom, winTo is the scored window in the tracker's clock.
	winFrom, winTo int64
	cs             clientStats // merged over clients (zero on sim)

	// Deltas over the scored window, summed over nodes.
	counters   map[string]int64
	histCounts map[string]int64
	msgs       int64 // protocol messages sent cluster-wide
	bytes      int64
	dropped    int64 // transport.dropped_frames_total over the whole run

	// simnet accounting over the whole run (zero on live): what the
	// interposed run must reproduce exactly.
	simEvents    int
	simMsgs      int
	simBytes     int
	eventsWindow int // events dispatched inside the scored window

	attempted int      // scored ops + correctness checks made
	failed    int      // ops that timed out or never became visible + checks that failed
	failures  []string // each failure by name

	logDepthEnd       int     // deepest replica at the end
	updatesHeld       int     // Σ replica.Len() over every top-layer replica
	heapPerUpdate     float64 // heap after GC ÷ updatesHeld
	walBytesPerUpdate float64 // node 1's journal bytes ÷ updates it holds
	tmpfs             bool    // whether the WAL dir sits on tmpfs

	// Traced pass only.
	tracer    *tracer
	sends     map[string]sendStat // per-kind sends inside the scored window
	spanFrom  int64               // scored window in the tracer's wall clock
	spanTo    int64
	executors int              // serialization domains cluster-wide
	replicas  []*store.Replica // end-of-run replicas of the deepest file, one per node
}

func (m *measured) check(ok bool, name string) {
	m.attempted++
	if !ok {
		m.failed++
		m.failures = append(m.failures, name)
	}
}

// ops is how many scored ops completed: acknowledged writes plus reads.
func (m *measured) ops() int { return len(m.tl.verdictNS) + m.cs.reads }

// ---- live ----

// measureLive runs one pass of a live workload: Setups set-ups (the last
// one is kept), the scored window, cool-down, quiesce, and the correctness
// gate. The returned cluster is stopped but not closed, so the probes can
// read its replicas; the caller closes it.
func measureLive(sp spec, seed int64, seconds float64, outDir string, traced bool, setups int) (*measured, *liveCluster, error) {
	if sp.Clients > runtime.NumCPU() {
		return nil, nil, fmt.Errorf("workload %s wants %d clients but the machine has %d CPUs: the load generator would compete with itself", sp.Name, sp.Clients, runtime.NumCPU())
	}
	m := &measured{sp: sp, tmpfs: onTmpfs(outDir)}
	var c *liveCluster
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
		}
		t0 := time.Now()
		var err error
		if c, err = buildLive(sp, outDir, traced); err != nil {
			return nil, nil, err
		}
		c.load(seed, 0, sp.WarmupOps, 0)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}

	from := c.now()
	to := from + int64(seconds*1e9)
	c.tr.window(from, to)
	m.winFrom, m.winTo = from, to
	before := c.snapshots()
	var sent0 map[string]sendStat
	if traced {
		sent0 = c.tracer.sent()
	}
	statsCh := make(chan []clientStats, 1)
	go func() { statsCh <- c.load(seed, 1, 0, to+int64(sp.CooldownSec*1e9)) }()
	time.Sleep(time.Duration(to - c.now()))
	after := c.snapshots()
	if traced {
		m.sends = sentDelta(sent0, c.tracer.sent())
	}
	m.windowS = float64(c.now()-from) / 1e9
	m.virtualS = m.windowS
	for _, st := range <-statsCh {
		m.cs.add(st)
	}
	c.quiesce()
	final := c.snapshots()
	c.stop()

	m.counters, m.histCounts = snapshotDelta(before, after)
	m.msgs = m.counters["transport.frames_sent_total"]
	m.bytes = m.counters["transport.bytes_sent_total"]
	m.tl = c.tr.tally()
	width := float64(to-from) / rateSlices / 1e9
	ops := append(append([]sample(nil), m.tl.verdictNS...), m.cs.readNS...)
	for _, slice := range cut(ops, from, to, rateSlices) {
		m.sliceOps = append(m.sliceOps, float64(len(slice))/width)
	}
	m.tracer, m.spanFrom, m.spanTo = c.tracer, from, to
	for _, ln := range c.nodes {
		m.executors += ln.core.Shards()
	}

	// Failure accounting: ops first, then the correctness gate.
	m.attempted = m.cs.attempted
	m.failed = m.tl.failedWrites + m.cs.badReads + (m.cs.timeouts - m.tl.unacked)
	if m.tl.unacked > 0 {
		m.failures = append(m.failures, fmt.Sprintf("write_timeouts=%d", m.tl.unacked))
	}
	if n := m.cs.timeouts - m.tl.unacked; n > 0 {
		m.failures = append(m.failures, fmt.Sprintf("read_timeouts=%d", n))
	}
	if m.tl.invisible > 0 {
		m.failures = append(m.failures, fmt.Sprintf("writes_never_visible=%d", m.tl.invisible))
	}
	if m.cs.badReads > 0 {
		m.failures = append(m.failures, fmt.Sprintf("short_reads=%d", m.cs.badReads))
	}
	m.check(m.tl.reissued == 0, "sequence_numbers_reissued")
	replica := func(n id.NodeID, f id.FileID) *store.Replica { return c.nodes[int(n)-1].core.Store().Open(f) }
	m.gate(c.files, c.top, replica)
	walErrs := int64(0)
	for i, ln := range c.nodes {
		m.check(ln.wal.Err() == nil, fmt.Sprintf("wal_err_n%d", ln.id))
		walErrs += final[i].Counters["store.wal_errors_total"]
		m.dropped += final[i].Counters["transport.dropped_frames_total"]
	}
	m.check(walErrs == 0, "wal_errors_total")

	m.footprint(c.files, c.top, replica, traced)

	// Clean close, then node 1's journal must replay to exactly what its
	// replicas held.
	n1 := c.nodes[0]
	m.check(n1.wal.Close() == nil, "wal_close")
	held := 0
	recovered := 0
	reopened, err := store.OpenWAL(n1.walDir)
	if err != nil {
		return nil, nil, err
	}
	for _, f := range c.files {
		log, err := reopened.Recover(f)
		m.check(err == nil, "wal_recover_"+string(f))
		recovered += len(log)
		held += n1.core.Store().Open(f).Len()
	}
	m.check(recovered == held, fmt.Sprintf("wal_recovered_%d_of_%d", recovered, held))
	if held > 0 {
		m.walBytesPerUpdate = float64(dirBytes(n1.walDir)) / float64(held)
	}
	return m, c, nil
}

// gate is the convergence half of the correctness gate, shared by both
// runtimes: every top-layer replica of a file has an equal vector, and
// every acknowledged write is present on every top-layer replica.
func (m *measured) gate(files []id.FileID, top map[id.FileID][]id.NodeID, replica func(id.NodeID, id.FileID) *store.Replica) {
	for _, f := range files {
		var first *vv.Vector
		equal, present := true, true
		for _, n := range top[f] {
			v := replica(n, f).Vector()
			if first == nil {
				first = v
			} else if vv.Compare(first, v) != vv.Equal {
				equal = false
			}
			for w, acked := range m.tl.acked[f] {
				if v.Count(w) < acked {
					present = false
				}
			}
		}
		m.check(equal, "vectors_diverge_"+string(f))
		m.check(present, "acked_write_missing_"+string(f))
	}
}

func sentDelta(before, after map[string]sendStat) map[string]sendStat {
	out := make(map[string]sendStat, len(after))
	for k, a := range after {
		out[k] = sendStat{a.count - before[k].count, a.bytes - before[k].bytes}
	}
	return out
}

// footprint records, while the end-of-run replicas are alive, how deep the
// logs got, how many updates the top-layer replicas hold, the deepest file's
// replicas (the probes' input) and — on an untraced pass, where no spans
// inflate the heap — heap bytes per update held.
func (m *measured) footprint(files []id.FileID, top map[id.FileID][]id.NodeID, replica func(id.NodeID, id.FileID) *store.Replica, traced bool) {
	deep := files[0]
	for _, f := range files {
		for _, n := range top[f] {
			l := replica(n, f).Len()
			m.updatesHeld += l
			if l > m.logDepthEnd {
				m.logDepthEnd, deep = l, f
			}
		}
	}
	for _, n := range top[deep] {
		m.replicas = append(m.replicas, replica(n, deep))
	}
	if !traced && m.updatesHeld > 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.heapPerUpdate = float64(ms.HeapAlloc) / float64(m.updatesHeld)
	}
}

// snapshotDelta sums counter and histogram-count deltas over nodes.
func snapshotDelta(before, after []telemetry.Snapshot) (counters, hists map[string]int64) {
	counters, hists = make(map[string]int64), make(map[string]int64)
	for i := range after {
		for k, v := range after[i].Counters {
			counters[k] += v - before[i].Counters[k]
		}
		for k, h := range after[i].Histograms {
			hists[k] += h.Count - before[i].Histograms[k].Count
		}
	}
	return counters, hists
}

func dirBytes(dir string) int64 {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			n += info.Size()
		}
	}
	return n
}

// onTmpfs reports whether dir is on a tmpfs mount (fsync is free there, so
// WAL numbers from tmpfs and from a disk are not comparable).
func onTmpfs(dir string) bool {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return false
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return false
	}
	best, fs := "", ""
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs == "tmpfs"
}

// ---- sim ----

// measureSim runs one pass of the simulated workload for a fixed virtual
// duration — seconds × VirtualPerSecond, rounded to whole write periods —
// so every virtual-time number repeats exactly for a seed.
func measureSim(sp spec, seed int64, seconds float64, traced bool, setups int) (*measured, *simCluster) {
	m := &measured{sp: sp}
	var c *simCluster
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		c = buildSim(sp, seed, traced, nil)
		c.runFor(sp.SimWarmup)
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
	}
	periods := int(seconds * sp.VirtualPerSecond / sp.WritePeriod.Seconds())
	if periods < 1 {
		periods = 1
	}
	window := time.Duration(periods) * sp.WritePeriod

	from := c.now()
	c.tr.window(from, from+int64(window))
	m.winFrom, m.winTo = from, from+int64(window)
	msgs0, bytes0, events0 := c.sim.Stats().Total(), c.sim.Stats().Bytes(), c.sim.Events()
	before := c.snapshots()
	var spanFrom int64
	var sent0 map[string]sendStat
	if traced {
		spanFrom, sent0 = c.tracer.now(), c.tracer.sent()
	}
	t0 := time.Now()
	perPeriod := float64(sp.Files * sp.TopSize)
	for i := 0; i < periods; i++ {
		p0 := time.Now()
		c.runFor(sp.WritePeriod)
		m.sliceOps = append(m.sliceOps, perPeriod/time.Since(p0).Seconds())
	}
	m.windowS = time.Since(t0).Seconds()
	m.virtualS = window.Seconds()
	if traced {
		m.tracer, m.spanFrom, m.spanTo = c.tracer, spanFrom, c.tracer.now()
		m.sends = sentDelta(sent0, c.tracer.sent())
	}
	m.counters, m.histCounts = snapshotDelta(before, c.snapshots())
	m.msgs = int64(c.sim.Stats().Total() - msgs0)
	m.bytes = int64(c.sim.Stats().Bytes() - bytes0)
	m.eventsWindow = c.sim.Events() - events0

	c.runFor(sp.SimCooldown)
	c.quiesce()
	m.simEvents, m.simMsgs, m.simBytes = c.sim.Events(), c.sim.Stats().Total(), c.sim.Stats().Bytes()
	m.tl = c.tr.tally()
	m.executors = 1 // one goroutine dispatches every event

	m.attempted = m.tl.scoredWrites
	m.failed = m.tl.failedWrites
	if m.tl.unacked > 0 {
		m.failures = append(m.failures, fmt.Sprintf("writes_without_verdict=%d", m.tl.unacked))
	}
	if m.tl.invisible > 0 {
		m.failures = append(m.failures, fmt.Sprintf("writes_never_visible=%d", m.tl.invisible))
	}
	m.check(m.tl.reissued == 0, "sequence_numbers_reissued")
	replica := func(n id.NodeID, f id.FileID) *store.Replica { return c.nodes[n].Store().Open(f) }
	m.gate(c.files, c.top, replica)
	m.footprint(c.files, c.top, replica, traced)
	return m, c
}

func (c *simCluster) snapshots() []telemetry.Snapshot {
	var out []telemetry.Snapshot
	for _, nid := range c.sim.Nodes() {
		out = append(out, c.nodes[nid].Metrics().Snapshot())
	}
	return out
}
