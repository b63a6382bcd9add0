//go:build !race

// The race detector makes sync.Pool drop Puts at random, so the write
// path only measures allocation-free without it.

package core

import "testing"

// TestLoneWriteAllocs holds a lone writer's write, once its replica
// exists, to zero allocations besides the replica's amortized growth.
func TestLoneWriteAllocs(t *testing.T) {
	n, e, data := loneWriter()
	n.WriteTracked(e, "f", "w", data, 0) // opens the replica
	if allocs := testing.AllocsPerRun(2000, func() { n.WriteTracked(e, "f", "w", data, 0) }); allocs != 0 {
		t.Errorf("a lone write allocates %v times, want 0", allocs)
	}
}
