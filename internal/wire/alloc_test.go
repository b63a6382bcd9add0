//go:build !race

// The race detector makes sync.Pool drop Puts at random, so the pooled
// encode path only measures allocation-free without it.

package wire

import "testing"

// TestEncodeFrameAllocFree holds the pooled encode path to exactly zero
// steady-state allocations on the transport's two hottest frame shapes:
// any allocation on them is a regression.
func TestEncodeFrameAllocFree(t *testing.T) {
	for _, e := range []Envelope{benchUpdateEnvelope(), benchDigestBatchEnvelope()} {
		allocs := testing.AllocsPerRun(1000, func() {
			f, err := EncodeFrame(e, 4)
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		})
		if allocs != 0 {
			t.Errorf("%T: EncodeFrame+Release = %v allocs/op, want 0", e.Msg, allocs)
		}
	}
}
