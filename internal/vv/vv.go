// Package vv implements the extended version vectors IDEA uses to detect
// and quantify inconsistency between replicas (paper §4.3–§4.4, Fig. 5).
//
// A classic version vector (Parker et al. [19]) maps each writer to the
// number of times it has updated the file. IDEA extends every entry with
// the timestamp of each update, attaches a critical-metadata value (the
// "[5]" column of Fig. 5 — e.g. the ASCII sum of recent white-board
// updates, or the total sale price of a booking server), and carries the
// <numerical error, order error, staleness> triple computed against a
// reference consistent state.
package vv

import (
	"fmt"
	"sort"
	"strings"

	"idea/internal/id"
)

// Stamp is a node-local update timestamp in nanoseconds. The paper assumes
// participating clocks agree within seconds (NTP); the simulator injects
// bounded skew to honour exactly that assumption.
type Stamp int64

// Seconds converts a stamp difference to seconds.
func (s Stamp) Seconds() float64 { return float64(s) / 1e9 }

// Ordering is the result of comparing two version vectors. As defined in
// [19], two vectors are comparable iff u<v, u=v or u>v; otherwise they are
// Concurrent, which is exactly the conflict condition IDEA detects.
type Ordering int

// The four possible outcomes of Compare.
const (
	Equal Ordering = iota
	Less
	Greater
	Concurrent
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Less:
		return "less"
	case Greater:
		return "greater"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// DefaultWindow is the default per-writer stamp window: how many recent
// stamps an Entry retains before compaction. Compare (which only reads
// counts) is exact at any window; staleness derivation is exact whenever
// two replicas diverge within the window and conservatively pessimistic
// beyond it — the same accuracy-vs-cost dial as the paper's gossip TTL.
const DefaultWindow = 64

// Entry records one writer's activity: how many updates it has issued
// (Count) and when the recent ones happened. Stamps is a bounded,
// non-decreasing suffix window: it holds the stamps of updates
// Base+1..Count (1-based); the Base older stamps have been compacted away
// behind Watermark, the stamp of update #Base (the newest compacted one,
// zero while Base is 0). Count == Base + len(Stamps) always holds.
//
// Stamps is append-only: no code writes an element that is already in the
// window. Tick appends at index len, and compact, Prefix and the wire
// decoder always build a fresh array. That is what lets clones share the
// window: a clone holds the slice capped at its length, so it never sees a
// later append to the original, and its own appends reallocate.
type Entry struct {
	Count     int
	Base      int
	Watermark Stamp
	Stamps    []Stamp
}

// clone returns e sharing its stamp window, capped at its length.
func (e Entry) clone() Entry {
	e.Stamps = e.Stamps[:len(e.Stamps):len(e.Stamps)]
	return e
}

// Last returns the stamp of the writer's most recent update (zero when the
// entry is empty).
func (e Entry) Last() Stamp {
	if n := len(e.Stamps); n > 0 {
		return e.Stamps[n-1]
	}
	return e.Watermark
}

// StampAt returns the stamp of the writer's i-th update (0-based) and
// whether that stamp is still inside the window. For a compacted index it
// returns the watermark — an upper bound on the true stamp — and false;
// for an index beyond Count it returns (0, false).
func (e Entry) StampAt(i int) (Stamp, bool) {
	switch {
	case i < 0 || i >= e.Count:
		return 0, false
	case i < e.Base:
		return e.Watermark, false
	default:
		return e.Stamps[i-e.Base], true
	}
}

// Prefix returns the entry reduced to the writer's first n updates. When
// the cut falls inside the compacted region the watermark is kept as a
// conservative (upper-bound) stand-in for the true cut stamp.
func (e Entry) Prefix(n int) Entry {
	if n >= e.Count {
		return e.clone()
	}
	if n < 0 {
		n = 0
	}
	out := Entry{Count: n, Base: e.Base, Watermark: e.Watermark}
	if n <= e.Base {
		out.Base = n
		if n == 0 {
			out.Watermark = 0
		}
		return out
	}
	out.Stamps = append([]Stamp(nil), e.Stamps[:n-e.Base]...)
	return out
}

// compact drops all but the newest window stamps, advancing the
// watermark. A non-positive window keeps a single stamp.
func (e Entry) compact(window int) Entry {
	if window < 1 {
		window = 1
	}
	drop := len(e.Stamps) - window
	if drop <= 0 {
		return e
	}
	e.Watermark = e.Stamps[drop-1]
	e.Base += drop
	e.Stamps = append([]Stamp(nil), e.Stamps[drop:]...)
	return e
}

// Triple is TACT's <numerical error, order error, staleness> inconsistency
// metric [26], adopted by IDEA (§4.4). Staleness is in seconds.
type Triple struct {
	Numerical float64
	Order     float64
	Staleness float64
}

// Add returns the component-wise sum of two triples.
func (t Triple) Add(o Triple) Triple {
	return Triple{t.Numerical + o.Numerical, t.Order + o.Order, t.Staleness + o.Staleness}
}

// Zero reports whether all components are zero (a fully consistent replica,
// as in Fig. 4(b)).
func (t Triple) Zero() bool { return t.Numerical == 0 && t.Order == 0 && t.Staleness == 0 }

// String implements fmt.Stringer.
func (t Triple) String() string {
	return fmt.Sprintf("<num=%.3g ord=%.3g stale=%.3gs>", t.Numerical, t.Order, t.Staleness)
}

// Vector is IDEA's extended version vector (Fig. 5): per-writer counts with
// timestamps, the critical-metadata value, and the attached triple. Per
// entry only a bounded window of recent stamps is retained (see Entry), so
// a vector's size — and therefore the size of every message that carries
// one — is bounded by writers × window, not by total update history.
type Vector struct {
	Entries map[id.NodeID]Entry
	// Meta is the application-defined critical metadata value used to
	// derive numerical error (§4.4.1): ASCII sums for a white board,
	// total sale price for a booking server.
	Meta float64
	// Err is the triple attached "at the end to conclude the extended
	// version vector". It is zero until a conflict is quantified.
	Err Triple

	// window is the per-writer stamp window; 0 means DefaultWindow. It is
	// node-local tuning state, deliberately not shipped on the wire.
	window int
}

// New returns an empty extended version vector (a fresh, consistent
// replica) with the default stamp window.
func New() *Vector {
	return &Vector{Entries: make(map[id.NodeID]Entry)}
}

// NewWindowed returns an empty vector whose entries keep at most window
// recent stamps per writer (0 means DefaultWindow; negative disables
// compaction entirely — full history, test/ablation use only).
func NewWindowed(window int) *Vector {
	return &Vector{Entries: make(map[id.NodeID]Entry), window: window}
}

// Window returns the effective per-writer stamp window (0 = unbounded).
func (v *Vector) Window() int {
	if v.window == 0 {
		return DefaultWindow
	}
	if v.window < 0 {
		return 0
	}
	return v.window
}

// Clone returns a copy that costs O(writers): the entry map is new, but
// each entry shares its stamp window with v (see Entry). Either vector
// may then Tick, Compact, TruncateWriter or Merge without the other
// seeing it.
func (v *Vector) Clone() *Vector { return v.CloneInto(nil) }

// CloneInto is Clone refilling dst instead of allocating a new vector:
// dst's entry map is cleared and reused, so a steady cycle of refills
// allocates nothing. Whatever dst held before is gone, so nobody else may
// hold dst. A nil dst allocates, exactly as Clone.
func (v *Vector) CloneInto(dst *Vector) *Vector {
	if dst == nil {
		dst = &Vector{Entries: make(map[id.NodeID]Entry, len(v.Entries))}
	} else {
		clear(dst.Entries)
	}
	dst.Meta, dst.Err, dst.window = v.Meta, v.Err, v.window
	for n, e := range v.Entries {
		dst.Entries[n] = e.clone()
	}
	return dst
}

// Counts returns v without its stamp windows: every entry keeps its Count
// and its newest stamp (as the watermark), with Base == Count. It is a
// fully compacted vector, so Compare, Merge, CountDiff and every count
// read answer exactly as on v; only staleness scoring needs the windows.
// Resolution ships vectors in this form.
func (v *Vector) Counts() *Vector {
	out := &Vector{
		Entries: make(map[id.NodeID]Entry, len(v.Entries)),
		Meta:    v.Meta,
		Err:     v.Err,
		window:  v.window,
	}
	for n, e := range v.Entries {
		out.Entries[n] = Entry{Count: e.Count, Base: e.Count, Watermark: e.Last()}
	}
	return out
}

// Above returns v without the stamps a scorer whose own counts are floor
// already holds: per writer, it keeps the stamps of updates
// min(floor.Count(w), count) (0-based) onward, and always the newest one.
// It costs O(writers): like Clone, each entry shares its window,
// suffix-sliced and capped at its length, and the dropped stamps move
// behind the watermark (Base = keep, Watermark = the newest dropped stamp),
// so counts, Compare and Last are those of v. A detection reply ships the
// peer's vector in this form, above the probing writer's counts, and a
// gossip report the reporter's, above the digest's; a writer the sender is
// not ahead on costs its count and newest stamp.
//
// It is exact for Formula 1 when the scorer's vector u has exactly the
// counts of floor. Scoring u against a reference built from v reads u's
// stamps at the end of the common prefix, and v's only at the first
// divergent update min(uc,vc) — read only when vc > uc (see
// LastConsistentStamp) — and v's newest stamp; all of these are kept.
func (v *Vector) Above(floor *Vector) *Vector {
	out := &Vector{
		Entries: make(map[id.NodeID]Entry, len(v.Entries)),
		Meta:    v.Meta,
		Err:     v.Err,
		window:  v.window,
	}
	for n, e := range v.Entries {
		keep := min(floor.Count(n), e.Count)
		if drop := keep - e.Base; drop > 0 {
			e.Watermark = e.Stamps[drop-1]
			e.Base = keep
			e.Stamps = e.Stamps[drop:]
		}
		out.Entries[n] = e.clone()
	}
	return out
}

// Count returns the number of updates recorded for writer w.
func (v *Vector) Count(w id.NodeID) int { return v.Entries[w].Count }

// TotalCount returns the total number of updates recorded across writers.
func (v *Vector) TotalCount() int {
	t := 0
	for _, e := range v.Entries {
		t += e.Count
	}
	return t
}

// Tick records one update by writer w at time at with resulting metadata
// value meta. It is the only mutation a write performs on the vector.
// Once the writer's stamp window overflows to twice the configured size
// it is compacted back down, keeping Tick amortized O(1).
func (v *Vector) Tick(w id.NodeID, at Stamp, meta float64) {
	e := v.Entries[w]
	if last := e.Last(); e.Count > 0 && last > at {
		// Clamp: a writer's own updates are totally ordered even if
		// its clock steps backwards (skew correction).
		at = last
	}
	e.Count++
	e.Stamps = append(e.Stamps, at)
	if win := v.Window(); win > 0 && len(e.Stamps) >= 2*win {
		e = e.compact(win)
	}
	v.Entries[w] = e
	v.Meta = meta
}

// Compact shrinks every entry to at most window recent stamps (0 means
// DefaultWindow), advancing the per-writer watermarks.
func (v *Vector) Compact(window int) {
	if window == 0 {
		window = DefaultWindow
	}
	for n, e := range v.Entries {
		v.Entries[n] = e.compact(window)
	}
}

// WindowStamps returns the total number of stamps currently held across
// all entries — the window-occupancy telemetry gauge.
func (v *Vector) WindowStamps() int {
	t := 0
	for _, e := range v.Entries {
		t += len(e.Stamps)
	}
	return t
}

// CompactedCount returns the total number of stamps compacted away across
// all entries.
func (v *Vector) CompactedCount() int {
	t := 0
	for _, e := range v.Entries {
		t += e.Base
	}
	return t
}

// Compare returns the ordering between u and v per [19]: u is Less when
// every entry of u is <= the corresponding entry of v (and at least one is
// smaller); Concurrent when each has updates the other lacks — the conflict
// IDEA's detection module reports as "fail".
//
// It walks u's entries once; v's are walked only when v holds writers u
// lacks, which the shared-writer count tells without a second lookup.
func Compare(u, v *Vector) Ordering {
	uAhead, vAhead := false, false
	shared := 0
	for n, e := range u.Entries {
		f, ok := v.Entries[n]
		if ok {
			shared++
		}
		switch {
		case e.Count > f.Count:
			uAhead = true
		case e.Count < f.Count:
			vAhead = true
		}
	}
	if shared < len(v.Entries) {
		for n, e := range v.Entries {
			if _, ok := u.Entries[n]; !ok && e.Count > 0 {
				vAhead = true
				break
			}
		}
	}
	switch {
	case uAhead && vAhead:
		return Concurrent
	case uAhead:
		return Greater
	case vAhead:
		return Less
	default:
		return Equal
	}
}

// Dominates reports whether u has seen every update v has (u >= v).
func Dominates(u, v *Vector) bool {
	o := Compare(u, v)
	return o == Greater || o == Equal
}

// Merge returns a new vector that has seen every update either input has
// (element-wise maximum, keeping the longer stamp list). The metadata of
// the merged vector is taken from the dominant input when one dominates,
// and must otherwise be recomputed by the application after resolution;
// Merge picks the input with more total updates as a placeholder.
func Merge(u, v *Vector) *Vector {
	out := New()
	out.window = u.window
	if out.window == 0 {
		out.window = v.window
	}
	for n, e := range u.Entries {
		out.Entries[n] = e.clone()
	}
	for n, e := range v.Entries {
		if cur, ok := out.Entries[n]; !ok || e.Count > cur.Count {
			out.Entries[n] = e.clone()
		}
	}
	switch Compare(u, v) {
	case Greater, Equal:
		out.Meta = u.Meta
	case Less:
		out.Meta = v.Meta
	default:
		if u.TotalCount() >= v.TotalCount() {
			out.Meta = u.Meta
		} else {
			out.Meta = v.Meta
		}
	}
	return out
}

// CountDiff returns how many updates of ref are missing from u and how many
// extra updates u has beyond ref. The paper's example (§4.4.1): "replica a
// misses one update and has two extra ones, so the order error is 3" —
// order error is missing+extra. Like Compare, it walks u's entries only
// when u holds writers ref lacks.
func CountDiff(u, ref *Vector) (missing, extra int) {
	shared := 0
	for n, re := range ref.Entries {
		ue, ok := u.Entries[n]
		if ok {
			shared++
		}
		switch d := re.Count - ue.Count; {
		case d > 0:
			missing += d
		case d < 0:
			extra -= d
		}
	}
	if shared < len(u.Entries) {
		for n, ue := range u.Entries {
			if _, ok := ref.Entries[n]; !ok && ue.Count > 0 {
				extra += ue.Count
			}
		}
	}
	return missing, extra
}

// LatestStamp returns the time of the most recent update recorded in v, or
// zero when v is empty.
func LatestStamp(v *Vector) Stamp {
	var max Stamp
	for _, e := range v.Entries {
		if s := e.Last(); e.Count > 0 && s > max {
			max = s
		}
	}
	return max
}

// TruncateWriter reduces writer w's entry to its first count updates
// (no-op when the entry already has count or fewer). Used when adopted
// resolution images invalidate a writer's extra updates.
func (v *Vector) TruncateWriter(w id.NodeID, count int) {
	e, ok := v.Entries[w]
	if !ok || e.Count <= count {
		return
	}
	if count <= 0 {
		delete(v.Entries, w)
		return
	}
	v.Entries[w] = e.Prefix(count)
}

// LastConsistentStamp returns the latest time point at which u and ref were
// consistent: the newest stamp in their common prefix of updates that is
// not later than the first point of divergence. In the paper's walkthrough
// the last consistent point is time 1 while ref's latest update is time 3,
// giving staleness 2.
//
// Only the end of the common prefix and the first-divergent stamps are
// consulted, so the result is exact whenever the vectors diverge within
// their stamp windows. When a needed stamp has been compacted away the
// function falls back conservatively: a compacted common-prefix stamp
// contributes nothing (the true common point can only be later) and a
// compacted divergence stamp pins the result to zero — staleness is then
// over-reported, never under-reported.
func LastConsistentStamp(u, ref *Vector) Stamp {
	// First divergence: for each writer, the stamp of the first update
	// beyond the shared prefix in whichever vector has more.
	firstDiv := Stamp(-1)
	divCompacted := false
	consider := func(longer Entry, shared int) {
		if longer.Count <= shared {
			return
		}
		s, ok := longer.StampAt(shared)
		if !ok {
			divCompacted = true
			return
		}
		if firstDiv < 0 || s < firstDiv {
			firstDiv = s
		}
	}
	var common Stamp
	writer := func(ue, re Entry) {
		shared := min(ue.Count, re.Count)
		// Stamps are non-decreasing, so the newest common-prefix stamp
		// is the one at the end of the shared prefix.
		if shared > 0 {
			if s, ok := ue.StampAt(shared - 1); ok && s > common {
				common = s
			}
		}
		consider(ue, shared)
		consider(re, shared)
	}
	// Every writer of either vector once: u's, then (only when ref holds
	// writers u lacks) ref's others. The result is a max and a min, so
	// the order does not matter.
	both := 0
	for n, ue := range u.Entries {
		re, ok := ref.Entries[n]
		if ok {
			both++
		}
		writer(ue, re)
	}
	if both < len(ref.Entries) {
		for n, re := range ref.Entries {
			if _, ok := u.Entries[n]; !ok {
				writer(Entry{}, re)
			}
		}
	}
	if divCompacted {
		return 0
	}
	if firstDiv >= 0 && common > firstDiv {
		common = firstDiv
	}
	return common
}

// TripleAgainst quantifies u's inconsistency against the reference
// consistent state ref, exactly as in the §4.4.1 walkthrough:
//
//   - numerical error: gap between the critical metadata values;
//   - order error: missing + extra updates relative to ref;
//   - staleness: time between ref's most recent update and the last point
//     at which u was consistent with ref.
func TripleAgainst(u, ref *Vector) Triple {
	missing, extra := CountDiff(u, ref)
	num := u.Meta - ref.Meta
	if num < 0 {
		num = -num
	}
	stale := (LatestStamp(ref) - LastConsistentStamp(u, ref)).Seconds()
	if stale < 0 {
		stale = 0
	}
	if missing == 0 && extra == 0 {
		// Fully consistent with the reference: no error at all.
		return Triple{}
	}
	return Triple{Numerical: num, Order: float64(missing + extra), Staleness: stale}
}

// Validate checks internal invariants: Count == Base + len(Stamps), the
// compacted prefix is well-formed, and stamps are non-decreasing. It
// returns nil when the vector is well-formed.
func (v *Vector) Validate() error {
	for n, e := range v.Entries {
		if e.Base < 0 {
			return fmt.Errorf("vv: writer %v negative base %d", n, e.Base)
		}
		if e.Count != e.Base+len(e.Stamps) {
			return fmt.Errorf("vv: writer %v count %d != base %d + %d stamps", n, e.Count, e.Base, len(e.Stamps))
		}
		if e.Base > 0 && len(e.Stamps) > 0 && e.Stamps[0] < e.Watermark {
			return fmt.Errorf("vv: writer %v window head %v before watermark %v", n, e.Stamps[0], e.Watermark)
		}
		for i := 1; i < len(e.Stamps); i++ {
			if e.Stamps[i] < e.Stamps[i-1] {
				return fmt.Errorf("vv: writer %v stamps not monotone at %d", n, i)
			}
		}
	}
	return nil
}

// String renders the vector in the paper's notation, e.g.
// "(n1:2(1,2) n2:1(3)) [5] <num=3 ord=3 stale=2s>".
func (v *Vector) String() string {
	ids := make([]id.NodeID, 0, len(v.Entries))
	for n := range v.Entries {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	b.WriteByte('(')
	for i, n := range ids {
		if i > 0 {
			b.WriteByte(' ')
		}
		e := v.Entries[n]
		fmt.Fprintf(&b, "%v:%d(", n, e.Count)
		if e.Base > 0 {
			fmt.Fprintf(&b, "…%d@%g", e.Base, e.Watermark.Seconds())
		}
		for j, s := range e.Stamps {
			if j > 0 || e.Base > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", s.Seconds())
		}
		b.WriteByte(')')
	}
	fmt.Fprintf(&b, ") [%g] %v", v.Meta, v.Err)
	return b.String()
}
