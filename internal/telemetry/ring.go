package telemetry

import (
	"sort"
	"sync"
)

// Ring is a bounded buffer of a node's most recent events: the storage
// under both the sampled span journal (internal/tracing) and the
// always-on flight recorder (internal/health). Events are appended to a
// class, a circular buffer of fixed capacity whose oldest event is
// overwritten once it is full, so each class is a retention policy: a
// flood of one class never evicts another's history. One mutex guards
// the ring, and one sequence stamps every event with its append order
// across classes. Events and Dropped are safe on a nil receiver.
type Ring[T any] struct {
	mu      sync.Mutex
	seq     uint64
	seqOf   func(*T) *uint64
	classes []ringClass[T]
}

type ringClass[T any] struct {
	buf  []T    // slot i holds the newest event appended at next ≡ i (mod len)
	next uint64 // total events ever appended to this class
}

// NewRing returns a ring of classes buffers of perClass events each.
// seqOf locates the field of an event that receives its append sequence.
func NewRing[T any](classes, perClass int, seqOf func(*T) *uint64) *Ring[T] {
	r := &Ring[T]{seqOf: seqOf, classes: make([]ringClass[T], classes)}
	for i := range r.classes {
		r.classes[i].buf = make([]T, perClass)
	}
	return r
}

// Append stamps ev with the next sequence number and stores it in the
// given class, overwriting that class's oldest event once it is full.
func (r *Ring[T]) Append(class int, ev T) {
	c := &r.classes[class]
	r.mu.Lock()
	r.seq++
	// Stamped in the slot: handing &ev to seqOf would move every event
	// to the heap.
	slot := &c.buf[c.next%uint64(len(c.buf))]
	*slot = ev
	*r.seqOf(slot) = r.seq
	c.next++
	r.mu.Unlock()
}

// Events returns every retained event ordered by append sequence (which
// under simnet is the deterministic schedule order; on a live node it is
// a consistent total order across classes).
func (r *Ring[T]) Events() []T {
	if r == nil {
		return nil
	}
	var out []T
	r.mu.Lock()
	for i := range r.classes {
		c := &r.classes[i]
		out = append(out, c.buf[:min(c.next, uint64(len(c.buf)))]...)
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return *r.seqOf(&out[a]) < *r.seqOf(&out[b]) })
	return out
}

// Dropped returns how many events have been overwritten before export.
func (r *Ring[T]) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	r.mu.Lock()
	for i := range r.classes {
		if c := &r.classes[i]; c.next > uint64(len(c.buf)) {
			n += c.next - uint64(len(c.buf))
		}
	}
	r.mu.Unlock()
	return n
}
