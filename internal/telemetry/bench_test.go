package telemetry

import "testing"

// BenchmarkCounterAdd prices one Counter.Add: serial is a lone writer,
// parallel is every P adding to the same counter at once.
func BenchmarkCounterAdd(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		var c Counter
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var c Counter
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(1)
			}
		})
	})
}

// BenchmarkHistogramObserve prices one Histogram.Observe of a latency in
// the default buckets, serially and from every P into one histogram.
func BenchmarkHistogramObserve(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		h := NewHistogram(nil)
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%1000) * 1e-5)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		h := NewHistogram(nil)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				h.Observe(float64(i%1000) * 1e-5)
				i++
			}
		})
	})
}
