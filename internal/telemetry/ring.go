package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Ring is a bounded, lock-striped buffer of a node's most recent events:
// the storage under both the sampled span journal (internal/tracing) and
// the always-on flight recorder (internal/health). Each stripe is a fixed
// buffer overwritten circularly under its own mutex, padded so that
// neighbouring stripes' hot words stay out of each other's cache line,
// and one atomic sequence stamps every event with its append order across
// stripes. Which stripe an event goes to is the caller's policy, passed
// to Append. Events and Dropped are safe on a nil receiver.
type Ring[T any] struct {
	seq     atomic.Uint64
	seqOf   func(*T) *uint64
	stripes []ringStripe[T]
}

type ringStripe[T any] struct {
	mu   sync.Mutex
	buf  []T    // slot i holds the newest event appended at next ≡ i (mod len)
	next uint64 // total events ever appended to this stripe
	_    [64]byte
}

// NewRing returns a ring of the given shape. seqOf locates the field of
// an event that receives its append sequence.
func NewRing[T any](stripes, perStripe int, seqOf func(*T) *uint64) *Ring[T] {
	r := &Ring[T]{seqOf: seqOf, stripes: make([]ringStripe[T], stripes)}
	for i := range r.stripes {
		r.stripes[i].buf = make([]T, perStripe)
	}
	return r
}

// Append stamps ev with the next sequence number and stores it in the
// given stripe, overwriting that stripe's oldest event once it is full.
func (r *Ring[T]) Append(stripe int, ev T) {
	seq := r.seq.Add(1)
	s := &r.stripes[stripe]
	s.mu.Lock()
	// Stamped in the slot: handing &ev to seqOf would move every event
	// to the heap.
	slot := &s.buf[s.next%uint64(len(s.buf))]
	*slot = ev
	*r.seqOf(slot) = seq
	s.next++
	s.mu.Unlock()
}

// Events returns every retained event ordered by append sequence (which
// under simnet is the deterministic schedule order; on a live node it is
// a consistent total order across stripes).
func (r *Ring[T]) Events() []T {
	if r == nil {
		return nil
	}
	var out []T
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		out = append(out, s.buf[:min(s.next, uint64(len(s.buf)))]...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return *r.seqOf(&out[a]) < *r.seqOf(&out[b]) })
	return out
}

// Dropped returns how many events have been overwritten before export.
func (r *Ring[T]) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		if full := uint64(len(s.buf)); s.next > full {
			n += s.next - full
		}
		s.mu.Unlock()
	}
	return n
}
