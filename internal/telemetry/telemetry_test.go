package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

// TestLookupReadsOnlyWhatItIsAsked: LookupCounter finds the counters that
// exist and creates none, GaugesMatching returns the gauges under the
// prefixes, and Gen moves with every counter or gauge created, not with a
// lookup or a histogram.
func TestLookupReadsOnlyWhatItIsAsked(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.total").Add(3)
	r.Counter("b.total").Add(4)
	r.Gauge("q.depth.1").Set(5)
	r.Gauge("q.depth.2").Set(6)
	r.Gauge("other").Set(7)
	gen := r.Gen()
	r.Histogram("lat").Observe(1)
	if c := r.LookupCounter("a.total"); c.Value() != 3 {
		t.Fatalf("a.total = %d, want 3", c.Value())
	}
	if c := r.LookupCounter("missing.total"); c != nil {
		t.Fatalf("missing.total = %v, want nil", c)
	}
	var sum int64
	gs := r.GaugesMatching(nil, "q.depth.")
	for _, g := range gs {
		sum += g.Value()
	}
	if len(gs) != 2 || sum != 11 {
		t.Fatalf("matched %d gauges summing to %d, want the two q.depth. gauges (11)", len(gs), sum)
	}
	if _, ok := r.Snapshot().Counters["missing.total"]; ok {
		t.Fatal("LookupCounter created a counter it was asked for")
	}
	if r.Gen() != gen {
		t.Fatalf("Gen moved from %d to %d without a counter or gauge created", gen, r.Gen())
	}
	r.Gauge("q.depth.3")
	if r.Gen() == gen {
		t.Fatal("Gen did not move when a gauge was created")
	}
	var nilReg *Registry
	if nilReg.LookupCounter("a.total") != nil || len(nilReg.GaugesMatching(nil, "")) != 0 || nilReg.Gen() != 0 {
		t.Fatal("nil registry must read empty")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram(nil)
	// 1..1000 ms uniformly: p50 ≈ 500ms, p95 ≈ 950ms, p99 ≈ 990ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	checks := []struct {
		q, want float64
	}{{0.50, 0.500}, {0.95, 0.950}, {0.99, 0.990}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		// Bucket growth is 1.3x, so the estimate must sit within ~30%.
		if got < c.want*0.70 || got > c.want*1.30 {
			t.Errorf("p%.0f = %.4f, want ~%.3f", c.q*100, got, c.want)
		}
	}
	if m := h.Mean(); math.Abs(m-0.5005) > 0.001 {
		t.Errorf("mean = %.4f, want ~0.5005", m)
	}
	if n := h.Count(); n != 1000 {
		t.Errorf("count = %d, want 1000", n)
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveDuration(123 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); math.Abs(got-0.123) > 1e-9 {
			t.Fatalf("Quantile(%g) = %v, want 0.123", q, got)
		}
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	if got := h.Quantile(0.5); got != 100 {
		t.Fatalf("overflow quantile = %v, want 100", got)
	}
}

// TestHistogramSumFollowsObservationOrder: float addition does not
// associate, so a sum is only reproducible if it is accumulated in the
// order the values were observed. A garbage collection between
// observations must not change which total a histogram reports.
func TestHistogramSumFollowsObservationOrder(t *testing.T) {
	vals := []float64{1e16, 1, 1, 1, 1}
	h := NewHistogram(nil)
	var want float64
	for i, v := range vals {
		h.Observe(v)
		want += v
		if i == 0 {
			runtime.GC()
			runtime.GC()
		}
	}
	if got := h.Sum(); got != want {
		t.Fatalf("Sum() = %v, want %v (the sum in observation order)", got, want)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("ops").Inc()
				r.Gauge(fmt.Sprintf("g%d", w%4)).Add(1)
				r.Histogram("lat").Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops").Value(); got != workers*per {
		t.Fatalf("ops = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("lat").Count(); got != workers*per {
		t.Fatalf("hist count = %d, want %d", got, workers*per)
	}
	var gsum int64
	for i := 0; i < 4; i++ {
		gsum += r.Gauge(fmt.Sprintf("g%d", i)).Value()
	}
	if gsum != workers*per {
		t.Fatalf("gauge sum = %d, want %d", gsum, workers*per)
	}
}

func TestSnapshotJSONAndHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("detect.total").Add(3)
	r.Histogram("detect.roundtrip_seconds").ObserveDuration(10 * time.Millisecond)

	srv, err := ServeAdmin("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("bad /metrics JSON: %v\n%s", err, body)
	}
	if snap.Counters["detect.total"] != 3 {
		t.Fatalf("counter lost in snapshot: %+v", snap)
	}
	if hs := snap.Histograms["detect.roundtrip_seconds"]; hs.Count != 1 || hs.P50 <= 0 {
		t.Fatalf("histogram lost in snapshot: %+v", snap)
	}

	h, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != 200 {
		t.Fatalf("/healthz = %d", h.StatusCode)
	}
}
