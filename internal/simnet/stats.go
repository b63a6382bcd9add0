package simnet

import (
	"fmt"
	"sort"
	"strings"

	"idea/internal/wire"
)

// Stats accumulates per-kind message counts and byte volumes — the
// communication-overhead metric of the paper's §6.3 ("measured in number
// of protocol messages"). Byte volumes are the wire codec's encoded frame
// sizes, the bytes a live connection would carry.
//
// Like the Cluster it belongs to, Stats is not safe for concurrent use:
// the event loop records every send, and readers run between steps. A
// send is counted and sized on the spot, with no lock and no hash:
// wire.Measure walks the message's fields without encoding them and
// returns its kind code, which indexes an array slot. Only a message the
// codec does not know is counted by its Kind string (and charged
// Measure's nominal 64 bytes).
type Stats struct {
	kinds   [wire.NumKinds]kindStats // by wire kind code; slot 0 unused
	other   map[string]*kindStats    // messages the codec does not know
	dropped int
}

// kindStats is one message kind's totals.
type kindStats struct {
	name  string
	count int
	bytes int
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return &Stats{} }

// record counts and sizes one sent envelope.
func (s *Stats) record(e wire.Envelope) {
	code, size := wire.Measure(e)
	k := &s.kinds[code]
	if code == 0 {
		k = s.otherKind(e.Msg.Kind())
	} else if k.count == 0 {
		k.name = e.Msg.Kind()
	}
	k.count++
	k.bytes += size
}

// otherKind returns the totals of a message kind the codec does not know.
func (s *Stats) otherKind(name string) *kindStats {
	k := s.other[name]
	if k == nil {
		if s.other == nil {
			s.other = make(map[string]*kindStats)
		}
		k = &kindStats{name: name}
		s.other[name] = k
	}
	return k
}

func (s *Stats) drop() { s.dropped++ }

// each calls f with the totals of every kind sent so far.
func (s *Stats) each(f func(k *kindStats)) {
	for i := range s.kinds {
		if s.kinds[i].count > 0 {
			f(&s.kinds[i])
		}
	}
	for _, k := range s.other {
		f(k)
	}
}

// Count returns the number of messages of the given kind sent so far.
func (s *Stats) Count(kind string) int {
	n := 0
	s.each(func(k *kindStats) {
		if k.name == kind {
			n += k.count
		}
	})
	return n
}

// Total returns the total number of messages sent.
func (s *Stats) Total() int { return s.TotalMatching("") }

// TotalMatching sums counts over kinds with the given prefix, e.g.
// "resolve." for all resolution traffic.
func (s *Stats) TotalMatching(prefix string) int {
	n := 0
	s.each(func(k *kindStats) {
		if strings.HasPrefix(k.name, prefix) {
			n += k.count
		}
	})
	return n
}

// Bytes returns the total bytes sent across all kinds.
func (s *Stats) Bytes() int { return s.BytesMatching("") }

// BytesMatching sums bytes over kinds with the given prefix.
func (s *Stats) BytesMatching(prefix string) int {
	n := 0
	s.each(func(k *kindStats) {
		if strings.HasPrefix(k.name, prefix) {
			n += k.bytes
		}
	})
	return n
}

// Dropped returns how many messages the loss model discarded.
func (s *Stats) Dropped() int { return s.dropped }

// Snapshot returns a copy of the per-kind counters.
func (s *Stats) Snapshot() map[string]int {
	out := make(map[string]int)
	s.each(func(k *kindStats) { out[k.name] += k.count })
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
	var ks []*kindStats
	s.each(func(k *kindStats) { ks = append(ks, k) })
	sort.Slice(ks, func(i, j int) bool { return ks[i].name < ks[j].name })
	var b strings.Builder
	for _, k := range ks {
		fmt.Fprintf(&b, "%-22s %6d msgs %9d B\n", k.name, k.count, k.bytes)
	}
	if s.dropped > 0 {
		fmt.Fprintf(&b, "%-22s %6d msgs\n", "(dropped)", s.dropped)
	}
	return b.String()
}
