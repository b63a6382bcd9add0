// Package telemetry is a dependency-free metrics subsystem for IDEA
// nodes: atomic counters, gauges, and fixed-bucket latency histograms
// behind a named Registry with a cheap Snapshot() export. Protocol code
// records into metric handles obtained once at wiring time; a nil handle
// is a no-op, so subsystems instrument unconditionally and pay nothing
// when no registry is attached. All operations are safe for concurrent
// use — the live transport records from several goroutines while the
// admin endpoint snapshots.
//
// Each counter and gauge is one atomic cell padded to a 64-byte cache
// line, and each histogram one bucket array plus one scalar block, so a
// write is one atomic add (a histogram's sum, min and max CAS loops
// besides) and a read loads what was written, in the order it was
// written: a histogram's sum follows observation order exactly.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// cell is one cacheline-padded accumulator: the padding keeps a hot
// counter out of its heap neighbours' cache line.
type cell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing event count.
type Counter struct {
	c cell
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.c.v.Add(n)
}

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.c.v.Load()
}

// Gauge is a point-in-time level (queue depth, log length, …), moved by
// Add or written absolutely by Set.
type Gauge struct {
	c cell
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.c.v.Store(v)
}

// Add moves the gauge by n. Safe on a nil receiver (no-op).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.c.v.Add(n)
}

// Value returns the current level; zero on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.c.v.Load()
}

// Histogram accumulates observations into fixed exponential buckets.
// Observations are float64s; for latencies the convention is seconds
// (use ObserveDuration). Quantiles are estimated by linear interpolation
// within the containing bucket, which is accurate to the bucket growth
// factor (~1.3x here) — plenty for p50/p95/p99 reporting.
type Histogram struct {
	bounds []float64      // upper bounds, ascending
	counts []atomic.Int64 // len(bounds)+1 buckets, the last one unbounded
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits accumulated via CAS
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
	_      [48]byte      // pads the struct to 128 bytes, two whole cache lines
}

// DefaultLatencyBounds covers 50µs .. ~80s with ~1.3x growth — wide
// enough for a local frame encode and a WAN resolution session alike.
func DefaultLatencyBounds() []float64 {
	var out []float64
	for v := 50e-6; v < 80; v *= 1.3 {
		out = append(out, v)
	}
	return out
}

// NewHistogram builds a histogram with the given ascending upper bounds;
// nil bounds mean DefaultLatencyBounds.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds()
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

func (h *Histogram) minValue() float64 { return math.Float64frombits(h.min.Load()) }

func (h *Histogram) maxValue() float64 { return math.Float64frombits(h.max.Load()) }

// ObserveDuration records d in seconds. Safe on a nil receiver (no-op).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns total observations; zero on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// CountAbove returns how many observations landed in buckets entirely
// above bound — the windowed-threshold primitive the health engine's
// fsync detector diffs between ticks (a cumulative quantile never
// decays, so it could never clear an alarm). The count is conservative:
// the bucket containing bound itself is excluded, since some of its
// observations may sit below the threshold.
func (h *Histogram) CountAbove(bound float64) int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := sort.SearchFloat64s(h.bounds, bound) + 1; i < len(h.counts); i++ {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the accumulated total; zero on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns Sum/Count, or zero with no observations.
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Quantile estimates the q-quantile (q in [0,1]) from the buckets. With
// no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i <= len(h.bounds); i++ {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		lo, hi := h.bucketSpan(i)
		// Clamp interpolation to the observed extremes so a single
		// observation reports its own value, not a bucket edge.
		frac := (rank - cum) / n
		v := lo + frac*(hi-lo)
		if min := h.minValue(); v < min {
			v = min
		}
		if max := h.maxValue(); v > max {
			v = max
		}
		return v
	}
	return h.maxValue()
}

func (h *Histogram) bucketSpan(i int) (lo, hi float64) {
	if i == 0 {
		return 0, h.bounds[0]
	}
	if i == len(h.bounds) {
		return h.bounds[len(h.bounds)-1], h.maxValue()
	}
	return h.bounds[i-1], h.bounds[i]
}

// ---- Registry ----

// Registry is a named collection of metrics. Lookup-or-create is
// mutex-guarded; the returned handles record lock-free, so subsystems
// resolve their handles once at wiring time and stay on the fast path.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	// gen counts the counters and gauges created (see Gen).
	gen atomic.Uint64

	// rtMu/rtLastGC belong to CollectRuntime (runtime.go): the GC-pause
	// cursor so each completed cycle is observed exactly once.
	rtMu     sync.Mutex
	rtLastGC uint32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
		r.gen.Add(1)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.gen.Add(1)
	}
	return g
}

// Histogram returns the named histogram, creating it with the default
// latency buckets on first use. A nil registry returns nil.
func (r *Registry) Histogram(name string) *Histogram {
	//idealint:allow telemetryhygiene registry's own delegation, name is the caller's
	return r.HistogramWith(name, nil)
}

// HistogramWith returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds mean DefaultLatencyBounds; an
// existing histogram keeps its original buckets). A nil registry returns
// nil.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// LevelBounds is a linear 0..1 bucket layout (step 0.02) for consistency
// -level histograms.
func LevelBounds() []float64 {
	out := make([]float64, 0, 50)
	for v := 0.02; v < 1.0; v += 0.02 {
		out = append(out, v)
	}
	return append(out, 1)
}

// HistogramSnap is one histogram's exported summary.
type HistogramSnap struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// Snapshot is a consistent-enough copy of every metric, cheap to take
// and JSON-friendly — the /metrics payload.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]HistogramSnap `json:"histograms"`
}

// Gen counts the counters and gauges the registry has created. A reader
// that resolved handles once (LookupCounter, GaugesMatching) resolves
// them again when Gen moves, so a metric registered after it, such as a
// new peer's queue gauge, is still read. Zero on a nil registry.
func (r *Registry) Gen() uint64 {
	if r == nil {
		return 0
	}
	return r.gen.Load()
}

// LookupCounter returns the named counter, or nil (which reads zero) when
// it does not exist: unlike Counter it creates nothing, so a reader does
// not add metrics to the export.
func (r *Registry) LookupCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[name]
}

// GaugesMatching appends to dst every gauge whose name starts with one of
// prefixes, in no particular order.
func (r *Registry) GaugesMatching(dst []*Gauge, prefixes ...string) []*Gauge {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, g := range r.gauges {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) {
				dst = append(dst, g)
				break
			}
		}
	}
	return dst
}

// Snapshot exports every metric. A nil registry exports empty maps.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnap{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counts {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		hs := HistogramSnap{
			Count: h.Count(),
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
		if hs.Count > 0 {
			hs.Max = h.maxValue()
		}
		s.Histograms[n] = hs
	}
	return s
}
