package simnet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Stats accumulates per-kind message counts and byte volumes — the
// communication-overhead metric of the paper's §6.3 ("measured in number
// of protocol messages"). Byte volumes are the wire codec's encoded frame
// sizes (wire.Sizer), the bytes a live connection would carry.
type Stats struct {
	mu      sync.Mutex
	counts  map[string]int
	bytes   map[string]int
	dropped int
}

// NewStats returns an empty Stats.
func NewStats() *Stats {
	return &Stats{counts: make(map[string]int), bytes: make(map[string]int)}
}

func (s *Stats) record(kind string, n int) {
	s.mu.Lock()
	s.counts[kind]++
	s.bytes[kind] += n
	s.mu.Unlock()
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
