package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.25, 20}, {0.9, 46}, {1, 50}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("an empty sample must have no quantile")
	}
}

// A percentile is reported only when at least ten samples lie beyond it;
// otherwise the highest percentile that has them is reported instead.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.5}, {0, 0.5}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	v := make([]float64, 150)
	for i := range v {
		v[i] = float64(i)
	}
	d := summarize(v)
	if d.TailP != 0.90 || d.N != 150 || d.Tail != quantile(v, 0.90) {
		t.Errorf("summarize of 150 samples = %+v, want the p90 tail", d)
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4), which
// is what the driver uses: for 1..10 the quartiles are 2.75, 5.5 and 8.25.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	med, sp := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if med != 5.5 || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = (%v, %v), want (5.5, 1)", med, sp)
	}
	if _, sp := spread([]float64{3}); sp != 0 {
		t.Errorf("one run has no spread, got %v", sp)
	}
}

// The interquartile mean ignores the outlying quarter at each end.
func TestIQMDropsOuterQuarters(t *testing.T) {
	if got := iqm([]float64{1000, 4, 2, 3, 5, 0, 6, 7}); got != 4.5 {
		t.Errorf("iqm = %v, want 4.5 (mean of 3, 4, 5, 6)", got)
	}
	if got := iqm([]float64{8}); got != 8 {
		t.Errorf("iqm of one value = %v, want it back", got)
	}
	if !math.IsNaN(iqm(nil)) {
		t.Error("iqm of nothing must be NaN")
	}
}

func TestVerdictMarksRows(t *testing.T) {
	lower := contractMetric{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := contractMetric{Name: "x_per_s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	wide := func(c float64) []float64 { return []float64{c * 0.5, c * 0.7, c, c * 1.3, c * 1.5} }
	for _, c := range []struct {
		cm   contractMetric
		a, b []float64
		want string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(80), "ok"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "ok"},
		{lower, wide(100), tight(105), "unresolved"},
		{contractMetric{Name: "layer"}, tight(100), tight(300), "-"},
	} {
		if _, _, _, _, _, got := verdict(c.cm, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.cm.Name, c.a[1], c.b[1], got, c.want)
		}
	}
}
