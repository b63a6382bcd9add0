// Package loadgen is the workload driver for IDEA deployments: it issues
// a configurable mix of write/read/hint/resolve operations against a
// cluster — live TCP nodes (RunLive) or the deterministic emulator
// (RunEmulated) — with open-loop (target rate, optional ramp-up) or
// closed-loop (fixed concurrency) pacing, a multi-file key distribution
// (uniform or Zipf-skewed), and per-operation latency recording. The
// result is a Report with ops/sec and p50/p95/p99 latency per operation,
// turning "how fast is detection under N writers?" into a repeatable
// measurement instead of a paper figure.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"idea/internal/id"
	"idea/internal/telemetry"
)

// Op is one workload operation type.
type Op int

// The operation types the driver mixes.
const (
	// OpWrite appends an update and triggers the detection round trip;
	// its latency is the writer-observed detect() delay.
	OpWrite Op = iota
	// OpRead serves the local replica (the Fig. 3 fast path).
	OpRead
	// OpHint sets a consistency hint (Table 1 set_hint).
	OpHint
	// OpResolve demands active resolution; its latency is the
	// initiator-side session duration (phase 1 + phase 2).
	OpResolve
	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpHint:
		return "hint"
	case OpResolve:
		return "resolve"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Mix weighs the operation types; weights are relative (they need not
// sum to anything). A zero Mix means pure writes.
type Mix struct {
	Write, Read, Hint, Resolve int
}

func (m Mix) withDefaults() Mix {
	if m.Write == 0 && m.Read == 0 && m.Hint == 0 && m.Resolve == 0 {
		m.Write = 1
	}
	return m
}

func (m Mix) weights() [numOps]int {
	return [numOps]int{m.Write, m.Read, m.Hint, m.Resolve}
}

// Pick draws one operation according to the weights.
func (m Mix) Pick(r *rand.Rand) Op {
	w := m.withDefaults().weights()
	total := 0
	for _, v := range w {
		total += v
	}
	n := r.Intn(total)
	for op, v := range w {
		if n < v {
			return Op(op)
		}
		n -= v
	}
	return OpWrite
}

// Config parameterizes one workload run.
type Config struct {
	// Seed makes op/file draws deterministic.
	Seed int64
	// Duration is how long the driver issues operations.
	Duration time.Duration
	// Rate is the open-loop target in ops/sec. Zero selects closed-loop
	// pacing with Workers concurrent issuers (live runs only; emulated
	// runs require a Rate).
	Rate float64
	// RampUp linearly scales the open-loop rate from zero over this
	// leading window; for closed-loop runs it staggers worker starts.
	RampUp time.Duration
	// Workers is the closed-loop concurrency; zero means 1.
	Workers int
	// Mix weighs the operation types; zero means pure writes.
	Mix Mix
	// Files are the shared files ops target; empty means one file
	// ("load").
	Files []id.FileID
	// ZipfSkew skews file choice toward the head of Files (s > 1);
	// zero/1 means uniform.
	ZipfSkew float64
	// PayloadBytes sizes each write's opaque payload; zero means 64.
	PayloadBytes int
	// HintLevel is the level OpHint sets; zero means 0.9.
	HintLevel float64
	// OpTimeout bounds a closed-loop wait for a write's detection
	// verdict; zero means 5 s.
	OpTimeout time.Duration
	// Stop, when non-nil, ends the run early when closed (e.g. on
	// SIGINT): issuing stops, outstanding verdicts are drained, and the
	// report covers what completed.
	Stop <-chan struct{}
	// ChurnEvery, with Churn, kills one cluster member every ChurnEvery
	// during the measured window (restarting it half a period later) and
	// extends the report with the ops/sec dip and recovery time. Live
	// runs only.
	ChurnEvery time.Duration
	// Churn kills one member and returns a function that restarts it
	// (nil if the kill is permanent). round counts from zero.
	Churn ChurnFunc
}

// ChurnFunc kills one cluster member for the churn scenario and returns
// the function that restarts it.
type ChurnFunc func(round int) (restart func())

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	c.Mix = c.Mix.withDefaults()
	if len(c.Files) == 0 {
		c.Files = []id.FileID{"load"}
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 64
	}
	if c.HintLevel == 0 {
		c.HintLevel = 0.9
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 5 * time.Second
	}
	return c
}

// filePicker draws files uniformly or Zipf-skewed.
type filePicker struct {
	files []id.FileID
	zipf  *rand.Zipf
	r     *rand.Rand
}

func newFilePicker(r *rand.Rand, files []id.FileID, skew float64) *filePicker {
	fp := &filePicker{files: files, r: r}
	if skew > 1 && len(files) > 1 {
		fp.zipf = rand.NewZipf(r, skew, 1, uint64(len(files)-1))
	}
	return fp
}

func (fp *filePicker) pick() id.FileID {
	if fp.zipf != nil {
		return fp.files[fp.zipf.Uint64()]
	}
	return fp.files[fp.r.Intn(len(fp.files))]
}

// recorder accumulates per-op latencies into telemetry histograms, so a
// run's latency data also shows up on the node's /metrics surface when
// the node registry is passed in.
type recorder struct {
	hists    [numOps]*telemetry.Histogram
	counts   [numOps]*telemetry.Counter
	timeouts *telemetry.Counter
}

func newRecorder(reg *telemetry.Registry) *recorder {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	rec := &recorder{timeouts: reg.Counter("loadgen.timeouts_total")}
	for op := Op(0); op < numOps; op++ {
		//idealint:allow telemetryhygiene per-op metric family interned once at construction
		rec.hists[op] = reg.Histogram(fmt.Sprintf("loadgen.%s_seconds", op))
		//idealint:allow telemetryhygiene per-op metric family interned once at construction
		rec.counts[op] = reg.Counter(fmt.Sprintf("loadgen.%s_total", op))
	}
	return rec
}

func (rec *recorder) observe(op Op, d time.Duration) {
	rec.counts[op].Inc()
	rec.hists[op].ObserveDuration(d)
}

// OpStats summarizes one operation type's run.
type OpStats struct {
	Count     int64
	OpsPerSec float64
	Mean      time.Duration
	P50       time.Duration
	P95       time.Duration
	P99       time.Duration
	Max       time.Duration
}

// ChurnReport summarizes how the workload rode through scripted member
// churn: the steady-state per-second rate, the worst dip after a kill,
// and how long the rate took to regain 90% of steady state.
type ChurnReport struct {
	Rounds          int
	SteadyOpsPerSec float64
	DipOpsPerSec    float64
	RecoverySeconds float64
}

// Report is the outcome of one workload run.
type Report struct {
	// Elapsed is the measured window (wall clock for live runs, virtual
	// time for emulated ones). Live runs exclude the RampUp warm-up
	// window from it — and from every count and percentile below.
	Elapsed time.Duration
	// Ops is the total operations completed; OpsPerSec is Ops/Elapsed.
	Ops       int64
	OpsPerSec float64
	// Timeouts counts closed-loop ops whose verdict never arrived.
	Timeouts int64
	// PerOp breaks the run down by operation type.
	PerOp map[string]OpStats
	// FileOps counts measured completed ops per file — the input to
	// idea-load's per-shard throughput split.
	FileOps map[id.FileID]int64 `json:",omitempty"`
	// Timeline is completed measured ops per second of the measured
	// window (wall seconds for live runs, virtual for emulated ones).
	Timeline []int64 `json:",omitempty"`
	// Churn is present when the run scripted member churn.
	Churn *ChurnReport `json:",omitempty"`
}

func (rec *recorder) report(elapsed time.Duration) *Report {
	rep := &Report{Elapsed: elapsed, PerOp: map[string]OpStats{}, Timeouts: rec.timeouts.Value()}
	secs := elapsed.Seconds()
	for op := Op(0); op < numOps; op++ {
		h := rec.hists[op]
		count := rec.counts[op].Value()
		if count == 0 {
			continue
		}
		st := OpStats{
			Count: count,
			Mean:  secondsToDuration(h.Mean()),
			P50:   secondsToDuration(h.Quantile(0.50)),
			P95:   secondsToDuration(h.Quantile(0.95)),
			P99:   secondsToDuration(h.Quantile(0.99)),
			Max:   secondsToDuration(h.Quantile(1)),
		}
		if secs > 0 {
			st.OpsPerSec = float64(count) / secs
		}
		rep.PerOp[op.String()] = st
		rep.Ops += count
	}
	if secs > 0 {
		rep.OpsPerSec = float64(rep.Ops) / secs
	}
	return rep
}

// secondsToDuration rounds to the nearest nanosecond: a histogram keeps
// seconds as float64s, whose sums and interpolations are off by an ulp or
// so, and truncation would turn a value a hair under n ns into n-1 ns.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// String renders the report as the table cmd/idea-load prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed %v   ops %d   ops/sec %.1f", r.Elapsed.Round(time.Millisecond), r.Ops, r.OpsPerSec)
	if r.Timeouts > 0 {
		fmt.Fprintf(&b, "   timeouts %d", r.Timeouts)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %12s %12s %12s\n",
		"op", "count", "ops/sec", "p50", "p95", "p99", "max")
	names := make([]string, 0, len(r.PerOp))
	for n := range r.PerOp {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := r.PerOp[n]
		fmt.Fprintf(&b, "%-8s %10d %10.1f %12v %12v %12v %12v\n",
			n, st.Count, st.OpsPerSec,
			st.P50.Round(time.Microsecond), st.P95.Round(time.Microsecond),
			st.P99.Round(time.Microsecond), st.Max.Round(time.Microsecond))
	}
	if c := r.Churn; c != nil {
		fmt.Fprintf(&b, "churn: %d round(s)   steady %.1f ops/s   dip %.1f ops/s   recovery %.1fs\n",
			c.Rounds, c.SteadyOpsPerSec, c.DipOpsPerSec, c.RecoverySeconds)
	}
	return b.String()
}
