package main

import (
	"math"
	"sort"
)

// interp reads a sorted sample at a fractional 0-based rank, interpolating
// linearly between neighbours and clamping at the ends. It is the one
// percentile routine of the benchmark: latency percentiles, the quartiles
// of the run-to-run spread, run, compare and the tests all go through it.
// An empty sample has no quantile; NaN says so.
func interp(sorted []float64, rank float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if rank <= 0 {
		return sorted[0]
	}
	if rank >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(rank))
	return sorted[lo] + (rank-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of a sorted sample.
func quantile(sorted []float64, q float64) float64 {
	return interp(sorted, q*float64(len(sorted)-1))
}

// tailLadder is the descending list of tail percentiles a latency may be
// reported at. A percentile is supported when at least minBeyond samples
// lie beyond it.
var tailLadder = []int{99, 95, 90, 75}

const minBeyond = 10

// supportedTail returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or 0.5 when even p75 does not.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if n*(100-p) >= minBeyond*100 {
			return float64(p) / 100
		}
	}
	return 0.5
}

// dist is a latency sample summarised the way every latency is reported:
// the median, the tail at the highest supported percentile, and the count.
type dist struct {
	N     int
	P50   float64
	Tail  float64
	TailP float64 // the percentile Tail was taken at (0.99 unless N is small)
}

// summarize sorts values in place and summarises them.
func summarize(values []float64) dist {
	sort.Float64s(values)
	p := supportedTail(len(values))
	return dist{N: len(values), P50: quantile(values, 0.5), Tail: quantile(values, p), TailP: p}
}

// median returns the median of values (unsorted, left untouched).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// iqm is the interquartile mean: the mean of what is left after the lowest
// and the highest quarter of the values are dropped. It is how per-slice
// values are combined into one steady figure for a run: like a median it
// ignores the slices a stall or a burst of noise landed in, and it averages
// the rest instead of picking one, so it is less noisy than a median when
// the slices also follow a trend (throughput falls as logs deepen).
func iqm(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	lo := len(s) / 4
	mid := s[lo : len(s)-lo]
	if len(mid) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}

// spread is the run-to-run spread of a metric: the distance between the
// first and third quartile as a share of the median. Quartiles are taken
// as Python's statistics.quantiles(values, n=4) takes them (1-based rank
// q·(n+1)), because that is what the driver computes.
func spread(values []float64) (median, iqrShare float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(q float64) float64 { return interp(s, q*float64(len(s)+1)-1) }
	median = at(0.5)
	iqr := at(0.75) - at(0.25)
	if len(s) < 2 || iqr == 0 {
		return median, 0
	}
	if median == 0 {
		return median, math.Inf(1)
	}
	return median, iqr / math.Abs(median)
}
