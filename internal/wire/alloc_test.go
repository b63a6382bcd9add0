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

// TestEncodeAllocatesOnce holds Encode to one allocation: the sizing walk
// runs first, so the fresh buffer is made at its exact size and never
// regrows.
func TestEncodeAllocatesOnce(t *testing.T) {
	for _, e := range []Envelope{
		{From: 1, To: 2, Msg: DetectRequest{File: "f", Token: 1, VV: sampleVector()}},
		benchUpdateEnvelope(),
		benchDigestBatchEnvelope(),
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			b, err := Encode(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) != cap(b) {
				t.Fatalf("%T: encoding is %d bytes in a %d-byte buffer", e.Msg, len(b), cap(b))
			}
		})
		if allocs != 1 {
			t.Errorf("%T: Encode = %v allocs/op, want 1", e.Msg, allocs)
		}
	}
}
