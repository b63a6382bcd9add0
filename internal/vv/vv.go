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
//
// A Vector keeps its entries in one slice sorted by writer, not in a map:
// comparing, merging, diffing or scoring two vectors is a single
// merge-walk over both slices, a writer is found by binary search, and
// Entries yields writers in ascending order — the order the wire codec
// encodes them in. Nothing on these paths hashes, and the two-vector
// reads allocate nothing.
package vv

import (
	"cmp"
	"fmt"
	"slices"
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
//
// The entries live in one slice kept in ascending writer order, so every
// two-vector operation is a single merge-walk over both slices and no
// operation hashes. A writer is looked up by binary search.
type Vector struct {
	entries []slot
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

// slot is one writer's entry in a Vector's sorted entry slice.
type slot struct {
	w id.NodeID
	e Entry
}

// New returns an empty extended version vector (a fresh, consistent
// replica) with the default stamp window.
func New() *Vector { return &Vector{} }

// NewWindowed returns an empty vector whose entries keep at most window
// recent stamps per writer (0 means DefaultWindow; negative disables
// compaction entirely — full history, test/ablation use only).
func NewWindowed(window int) *Vector { return &Vector{window: window} }

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

// find returns the index of writer w in the entry slice, or where it
// would be inserted, and whether it is there.
func (v *Vector) find(w id.NodeID) (int, bool) {
	lo, hi := 0, len(v.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v.entries[m].w < w {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(v.entries) && v.entries[lo].w == w
}

// Len returns the number of writers v holds an entry for.
func (v *Vector) Len() int { return len(v.entries) }

// Has reports whether v holds an entry for writer w (possibly with
// count 0).
func (v *Vector) Has(w id.NodeID) bool {
	_, ok := v.find(w)
	return ok
}

// Entry returns writer w's entry, or the zero Entry when v has none. The
// stamp window is shared with v and capped at its length; it must not be
// written.
func (v *Vector) Entry(w id.NodeID) Entry {
	if i, ok := v.find(w); ok {
		return v.entries[i].e.clone()
	}
	return Entry{}
}

// Entries yields every writer and its entry in ascending writer order,
// for use as a range-over-func iterator. The loop body may
// TruncateWriter the yielded writer to a positive count; it must not add
// or delete writers (iterate Writers for that).
func (v *Vector) Entries(yield func(id.NodeID, Entry) bool) {
	for i := 0; i < len(v.entries); i++ {
		if s := v.entries[i]; !yield(s.w, s.e.clone()) {
			return
		}
	}
}

// Writers returns the writers v holds entries for, in ascending order, in
// a fresh slice.
func (v *Vector) Writers() []id.NodeID {
	out := make([]id.NodeID, len(v.entries))
	for i, s := range v.entries {
		out[i] = s.w
	}
	return out
}

// SetEntry sets writer w's entry to e, inserting it when v has none. The
// vector takes e as it is, stamp window included. A writer above every
// writer v holds is appended without a search.
func (v *Vector) SetEntry(w id.NodeID, e Entry) {
	if n := len(v.entries); n == 0 || v.entries[n-1].w < w {
		v.entries = append(v.entries, slot{w, e})
		return
	}
	i, ok := v.find(w)
	if !ok {
		v.entries = slices.Insert(v.entries, i, slot{w: w})
	}
	v.entries[i].e = e
}

// Grow makes room for n more writers, so that many SetEntry, AppendEntry
// or Tick insertions do not reallocate the entry slice.
func (v *Vector) Grow(n int) {
	if n > 0 {
		v.entries = slices.Grow(v.entries, n)
	}
}

// AppendEntry appends writer w's entry without a search, for a caller
// that builds a vector from a list whose order it does not control (a
// frame decoder). The vector must not be used until SortEntries is
// called.
func (v *Vector) AppendEntry(w id.NodeID, e Entry) {
	v.entries = append(v.entries, slot{w, e})
}

// SortEntries restores ascending writer order after AppendEntry calls,
// keeping the last entry appended for a repeated writer. It is one pass
// when the writers already ascend and O(n log n) otherwise, whatever the
// order — a hostile list cannot make it quadratic.
func (v *Vector) SortEntries() {
	k := 1
	for k < len(v.entries) && v.entries[k-1].w < v.entries[k].w {
		k++
	}
	if k >= len(v.entries) {
		return
	}
	// Sort positions by (writer, position): a total order, so the
	// unstable sort is deterministic and the last duplicate ends each run.
	pos := make([]int, len(v.entries))
	for i := range pos {
		pos[i] = i
	}
	slices.SortFunc(pos, func(i, j int) int {
		if c := cmp.Compare(v.entries[i].w, v.entries[j].w); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	out := make([]slot, 0, len(pos))
	for k, i := range pos {
		if k+1 < len(pos) && v.entries[pos[k+1]].w == v.entries[i].w {
			continue
		}
		out = append(out, v.entries[i])
	}
	v.entries = out
}

// Delete removes writer w's entry (a no-op when v has none).
func (v *Vector) Delete(w id.NodeID) {
	if i, ok := v.find(w); ok {
		v.entries = slices.Delete(v.entries, i, i+1)
	}
}

// Clone returns a copy that costs O(writers): the entry slice is new, but
// each entry shares its stamp window with v (see Entry). Either vector
// may then Tick, Compact, TruncateWriter or Merge without the other
// seeing it.
func (v *Vector) Clone() *Vector { return v.CloneInto(nil) }

// CloneInto is Clone refilling dst instead of allocating a new vector:
// dst's entry slice is reused, so a steady cycle of refills allocates
// nothing. Whatever dst held before is gone, so nobody else may hold dst.
// A nil dst allocates, exactly as Clone.
func (v *Vector) CloneInto(dst *Vector) *Vector {
	if dst == nil {
		dst = &Vector{}
	}
	dst.Meta, dst.Err, dst.window = v.Meta, v.Err, v.window
	out := slices.Grow(dst.entries[:0], len(v.entries))[:len(v.entries)]
	for i, s := range v.entries {
		out[i] = slot{s.w, s.e.clone()}
	}
	dst.entries = out
	return dst
}

// derive returns an empty vector with v's metadata, triple and window and
// an entry slice of v's length, for a one-pass rewrite of v's entries.
func (v *Vector) derive() *Vector {
	out := &Vector{Meta: v.Meta, Err: v.Err, window: v.window}
	if len(v.entries) > 0 {
		out.entries = make([]slot, len(v.entries))
	}
	return out
}

// Counts returns v without its stamp windows: every entry keeps its Count
// and its newest stamp (as the watermark), with Base == Count. It is a
// fully compacted vector, so Compare, Merge, CountDiff and every count
// read answer exactly as on v; only staleness scoring needs the windows.
// Resolution ships vectors in this form.
func (v *Vector) Counts() *Vector {
	out := v.derive()
	for i, s := range v.entries {
		out.entries[i] = slot{s.w, Entry{Count: s.e.Count, Base: s.e.Count, Watermark: s.e.Last()}}
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
	out := v.derive()
	fl := floor.entries
	for i, s := range v.entries {
		for len(fl) > 0 && fl[0].w < s.w {
			fl = fl[1:]
		}
		have := 0
		if len(fl) > 0 && fl[0].w == s.w {
			have = fl[0].e.Count
		}
		e := s.e
		keep := min(have, e.Count)
		if drop := keep - e.Base; drop > 0 {
			e.Watermark = e.Stamps[drop-1]
			e.Base = keep
			e.Stamps = e.Stamps[drop:]
		}
		out.entries[i] = slot{s.w, e.clone()}
	}
	return out
}

// Count returns the number of updates recorded for writer w.
func (v *Vector) Count(w id.NodeID) int {
	if i, ok := v.find(w); ok {
		return v.entries[i].e.Count
	}
	return 0
}

// TotalCount returns the total number of updates recorded across writers.
func (v *Vector) TotalCount() int {
	t := 0
	for _, s := range v.entries {
		t += s.e.Count
	}
	return t
}

// Tick records one update by writer w at time at with resulting metadata
// value meta. It is the only mutation a write performs on the vector.
// Once the writer's stamp window overflows to twice the configured size
// it is compacted back down, keeping Tick amortized O(1). It returns how
// many stamps the writer's window gained (negative when the tick
// compacted it): the change in WindowStamps.
func (v *Vector) Tick(w id.NodeID, at Stamp, meta float64) int {
	i, ok := v.find(w)
	if !ok {
		v.entries = slices.Insert(v.entries, i, slot{w: w})
	}
	e := &v.entries[i].e
	if last := e.Last(); e.Count > 0 && last > at {
		// Clamp: a writer's own updates are totally ordered even if
		// its clock steps backwards (skew correction).
		at = last
	}
	before := len(e.Stamps)
	e.Count++
	e.Stamps = append(e.Stamps, at)
	if win := v.Window(); win > 0 && len(e.Stamps) >= 2*win {
		*e = e.compact(win)
	}
	v.Meta = meta
	return len(e.Stamps) - before
}

// Compact shrinks every entry to at most window recent stamps (0 means
// DefaultWindow), advancing the per-writer watermarks.
func (v *Vector) Compact(window int) {
	if window == 0 {
		window = DefaultWindow
	}
	for i := range v.entries {
		v.entries[i].e = v.entries[i].e.compact(window)
	}
}

// WindowStamps returns the total number of stamps currently held across
// all entries — the window-occupancy telemetry gauge.
func (v *Vector) WindowStamps() int {
	t := 0
	for _, s := range v.entries {
		t += len(s.e.Stamps)
	}
	return t
}

// CompactedCount returns the total number of stamps compacted away across
// all entries.
func (v *Vector) CompactedCount() int {
	t := 0
	for _, s := range v.entries {
		t += s.e.Base
	}
	return t
}

// absent is the entry a merge-walk reads for a writer one side lacks.
var absent Entry

// zip merge-walks the entry slices of two vectors: each next visits one
// writer either holds, in ascending order, with both sides' entries
// (&absent for a side without the writer).
type zip struct{ a, b []slot }

func (z *zip) next() (w id.NodeID, a, b *Entry, ok bool) {
	switch {
	case len(z.a) == 0 && len(z.b) == 0:
		return 0, nil, nil, false
	case len(z.b) == 0 || len(z.a) > 0 && z.a[0].w < z.b[0].w:
		w, a, b = z.a[0].w, &z.a[0].e, &absent
		z.a = z.a[1:]
	case len(z.a) == 0 || z.b[0].w < z.a[0].w:
		w, a, b = z.b[0].w, &absent, &z.b[0].e
		z.b = z.b[1:]
	default:
		w, a, b = z.a[0].w, &z.a[0].e, &z.b[0].e
		z.a, z.b = z.a[1:], z.b[1:]
	}
	return w, a, b, true
}

// Compare returns the ordering between u and v per [19]: u is Less when
// every entry of u is <= the corresponding entry of v (and at least one is
// smaller); Concurrent when each has updates the other lacks — the conflict
// IDEA's detection module reports as "fail". It is one merge-walk.
func Compare(u, v *Vector) Ordering {
	uAhead, vAhead := false, false
	z := zip{u.entries, v.entries}
	for {
		_, a, b, ok := z.next()
		if !ok {
			break
		}
		switch {
		case a.Count > b.Count:
			uAhead = true
		case a.Count < b.Count:
			vAhead = true
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
// Merge picks the input with more total updates as a placeholder. It is
// one merge-walk.
func Merge(u, v *Vector) *Vector {
	out := &Vector{window: u.window}
	if out.window == 0 {
		out.window = v.window
	}
	if n := max(len(u.entries), len(v.entries)); n > 0 {
		// Exact when both hold the same writers; append grows it otherwise.
		out.entries = make([]slot, 0, n)
	}
	uAhead, vAhead := false, false
	ut, vt := 0, 0
	z := zip{u.entries, v.entries}
	for {
		w, a, b, ok := z.next()
		if !ok {
			break
		}
		ut, vt = ut+a.Count, vt+b.Count
		keep := a
		switch {
		case a.Count > b.Count:
			uAhead = true
		case a.Count < b.Count:
			vAhead, keep = true, b
		case a == &absent:
			keep = b
		}
		out.entries = append(out.entries, slot{w, keep.clone()})
	}
	switch {
	case !vAhead: // Greater or Equal
		out.Meta = u.Meta
	case !uAhead: // Less
		out.Meta = v.Meta
	case ut >= vt:
		out.Meta = u.Meta
	default:
		out.Meta = v.Meta
	}
	return out
}

// CountDiff returns how many updates of ref are missing from u and how many
// extra updates u has beyond ref. The paper's example (§4.4.1): "replica a
// misses one update and has two extra ones, so the order error is 3" —
// order error is missing+extra. It is one merge-walk.
func CountDiff(u, ref *Vector) (missing, extra int) {
	z := zip{u.entries, ref.entries}
	for {
		_, a, b, ok := z.next()
		if !ok {
			break
		}
		switch d := b.Count - a.Count; {
		case d > 0:
			missing += d
		case d < 0:
			extra -= d
		}
	}
	return missing, extra
}

// LatestStamp returns the time of the most recent update recorded in v, or
// zero when v is empty.
func LatestStamp(v *Vector) Stamp {
	var max Stamp
	for _, s := range v.entries {
		if l := s.e.Last(); s.e.Count > 0 && l > max {
			max = l
		}
	}
	return max
}

// TruncateWriter reduces writer w's entry to its first count updates
// (no-op when the entry already has count or fewer), deleting the entry
// when count is not positive. Used when adopted resolution images
// invalidate a writer's extra updates.
func (v *Vector) TruncateWriter(w id.NodeID, count int) {
	i, ok := v.find(w)
	if !ok || v.entries[i].e.Count <= count {
		return
	}
	if count <= 0 {
		v.entries = slices.Delete(v.entries, i, i+1)
		return
	}
	v.entries[i].e = v.entries[i].e.Prefix(count)
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
	consider := func(longer *Entry, shared int) {
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
	z := zip{u.entries, ref.entries}
	for {
		_, ue, re, ok := z.next()
		if !ok {
			break
		}
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

// Validate checks internal invariants: writers strictly ascending, Count
// == Base + len(Stamps), the compacted prefix is well-formed, and stamps
// are non-decreasing. It returns nil when the vector is well-formed.
func (v *Vector) Validate() error {
	for i, s := range v.entries {
		n, e := s.w, s.e
		if i > 0 && v.entries[i-1].w >= n {
			return fmt.Errorf("vv: writer %v out of order after %v", n, v.entries[i-1].w)
		}
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
	var b strings.Builder
	b.WriteByte('(')
	for i, s := range v.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		e := s.e
		fmt.Fprintf(&b, "%v:%d(", s.w, e.Count)
		if e.Base > 0 {
			fmt.Fprintf(&b, "…%d@%g", e.Base, e.Watermark.Seconds())
		}
		for j, st := range e.Stamps {
			if j > 0 || e.Base > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", st.Seconds())
		}
		b.WriteByte(')')
	}
	fmt.Fprintf(&b, ") [%g] %v", v.Meta, v.Err)
	return b.String()
}
