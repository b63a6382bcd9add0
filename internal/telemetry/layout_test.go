package telemetry

import (
	"testing"
	"unsafe"
)

// Counters, gauges and histograms are padded so that a hot metric owns
// its cache lines instead of sharing one with whatever the allocator put
// beside it; that only holds while their sizes stay exact multiples of
// 64. This pins the layout against innocent field additions.
func TestPaddedMetricsAreCacheLineSized(t *testing.T) {
	for name, size := range map[string]uintptr{
		"Counter":   unsafe.Sizeof(Counter{}),
		"Gauge":     unsafe.Sizeof(Gauge{}),
		"Histogram": unsafe.Sizeof(Histogram{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d bytes; must be a multiple of 64", name, size)
		}
	}
}
