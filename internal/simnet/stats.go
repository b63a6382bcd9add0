package simnet

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"idea/internal/wire"
)

// sizeBatch is how many sent envelopes queue before one goroutine sizes
// them beside the event loop.
const sizeBatch = 256

// Stats accumulates per-kind message counts and byte volumes — the
// communication-overhead metric of the paper's §6.3 ("measured in number
// of protocol messages"). Byte volumes are the wire codec's encoded frame
// sizes (wire.Sizer), the bytes a live connection would carry.
//
// A message is counted when it is sent, but sized beside the event loop:
// sent envelopes queue in batches of sizeBatch, and one goroutine at a
// time sizes a full batch while the loop goes on. Every byte reader
// (Bytes, BytesMatching, String) first waits for that goroutine and sizes
// the partial batch, so byte totals are exact. Sizing encodes a message
// after its Send returned, and receivers read the very value that was
// sent, so a message must never be mutated after Send.
type Stats struct {
	mu      sync.Mutex
	counts  map[string]int
	bytes   map[string]int
	dropped int

	queue []wire.Envelope // sent, not yet handed to a sizing goroutine
	// spare is the batch the sizing goroutine holds while busy is, sums
	// its per-kind byte totals and sizer its encoder; all three are the
	// event loop's again after busy.Wait.
	spare []wire.Envelope
	sums  map[string]int
	sizer *wire.Sizer
	busy  sync.WaitGroup
}

// NewStats returns an empty Stats.
func NewStats() *Stats {
	return &Stats{counts: make(map[string]int), bytes: make(map[string]int), sums: make(map[string]int), sizer: wire.NewSizer()}
}

// record counts one sent envelope and queues it for sizing.
func (s *Stats) record(e wire.Envelope) {
	s.mu.Lock()
	s.counts[e.Msg.Kind()]++
	if s.queue = append(s.queue, e); len(s.queue) >= sizeBatch {
		s.settle()
		s.queue, s.spare = s.spare, s.queue
		s.busy.Add(1)
		batch, sums := s.spare, s.sums
		go func() {
			sizeAll(s.sizer, batch, sums)
			s.busy.Done()
		}()
	}
	s.mu.Unlock()
}

// sizeAll adds the encoded size of every envelope to sums, per kind.
func sizeAll(sz *wire.Sizer, batch []wire.Envelope, sums map[string]int) {
	for _, e := range batch {
		sums[e.Msg.Kind()] += sz.Size(e)
	}
}

// settle waits for the sizing goroutine, if one runs, and folds its sums
// into the totals. Called with mu held.
func (s *Stats) settle() {
	s.busy.Wait()
	for k, b := range s.sums {
		s.bytes[k] += b
	}
	clear(s.sums)
	clear(s.spare) // drop the sized messages
	s.spare = s.spare[:0]
}

// sized brings the byte totals up to every send so far. Called with mu
// held.
func (s *Stats) sized() {
	s.settle()
	sizeAll(s.sizer, s.queue, s.bytes)
	clear(s.queue)
	s.queue = s.queue[:0]
}

func (s *Stats) drop() {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
}

// Count returns the number of messages of the given kind sent so far.
func (s *Stats) Count(kind string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[kind]
}

// Total returns the total number of messages sent.
func (s *Stats) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := 0
	for _, c := range s.counts {
		t += c
	}
	return t
}

// TotalMatching sums counts over kinds with the given prefix, e.g.
// "resolve." for all resolution traffic.
func (s *Stats) TotalMatching(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := 0
	for k, c := range s.counts {
		if strings.HasPrefix(k, prefix) {
			t += c
		}
	}
	return t
}

// Bytes returns the total bytes sent across all kinds.
func (s *Stats) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sized()
	t := 0
	for _, b := range s.bytes {
		t += b
	}
	return t
}

// BytesMatching sums bytes over kinds with the given prefix.
func (s *Stats) BytesMatching(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sized()
	t := 0
	for k, b := range s.bytes {
		if strings.HasPrefix(k, prefix) {
			t += b
		}
	}
	return t
}

// Dropped returns how many messages the loss model discarded.
func (s *Stats) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Snapshot returns a copy of the per-kind counters.
func (s *Stats) Snapshot() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.counts))
	for k, v := range s.counts {
		out[k] = v
	}
	return out
}

// Diff returns per-kind counts accumulated since the earlier snapshot.
func (s *Stats) Diff(earlier map[string]int) map[string]int {
	out := s.Snapshot()
	for k, v := range earlier {
		if out[k] == v {
			delete(out, k)
		} else {
			out[k] -= v
		}
	}
	return out
}

// String renders the counters sorted by kind.
func (s *Stats) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sized()
	kinds := make([]string, 0, len(s.counts))
	for k := range s.counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-22s %6d msgs %9d B\n", k, s.counts[k], s.bytes[k])
	}
	if s.dropped > 0 {
		fmt.Fprintf(&b, "%-22s %6d msgs\n", "(dropped)", s.dropped)
	}
	return b.String()
}
