package vv

import (
	"fmt"
	"slices"

	"idea/internal/id"
)

// model is the reference form of a Vector: its entries in a
// map[id.NodeID]Entry, as the type held them before they became a
// writer-sorted slice, and every operation written as a map walk. The
// fuzz tests run the slice forms against it. A model never shares a
// stamp array with anything: each operation copies the windows it keeps.
type model struct {
	entries map[id.NodeID]Entry
	meta    float64
	err     Triple
	window  int
}

func newModel(window int) *model {
	return &model{entries: map[id.NodeID]Entry{}, window: window}
}

// own returns e in a stamp array nobody else holds.
func own(e Entry) Entry {
	if e.Stamps != nil {
		e.Stamps = append([]Stamp(nil), e.Stamps...)
	}
	return e
}

// modelOf reads v into a model through Entries.
func modelOf(v *Vector) *model {
	m := newModel(v.window)
	m.meta, m.err = v.Meta, v.Err
	for w, e := range v.Entries {
		m.entries[w] = own(e)
	}
	return m
}

// vector builds the Vector m stands for, through SetEntry in map order.
func (m *model) vector() *Vector {
	v := NewWindowed(m.window)
	v.Meta, v.Err = m.meta, m.err
	for w, e := range m.entries {
		v.SetEntry(w, own(e))
	}
	return v
}

// check reports how v differs from m, or nil when they hold the same
// writers, counts, windows, watermarks, metadata, triple and stamp window
// setting. It reads v through Len and Entry, not Entries, and also checks
// that Entries yields v's writers in ascending order.
func (m *model) check(v *Vector) error {
	if v.Meta != m.meta || v.Err != m.err || v.window != m.window {
		return fmt.Errorf("meta/err/window %g %v %d, model %g %v %d", v.Meta, v.Err, v.window, m.meta, m.err, m.window)
	}
	if v.Len() != len(m.entries) {
		return fmt.Errorf("%d writers, model %d", v.Len(), len(m.entries))
	}
	for w, b := range m.entries {
		a := v.Entry(w)
		if !v.Has(w) || a.Count != b.Count || a.Base != b.Base || a.Watermark != b.Watermark || !slices.Equal(a.Stamps, b.Stamps) {
			return fmt.Errorf("writer %v: %+v, model %+v", w, a, b)
		}
	}
	var seen []id.NodeID
	for w := range v.Entries {
		seen = append(seen, w)
	}
	if !slices.IsSorted(seen) || !slices.Equal(seen, v.Writers()) {
		return fmt.Errorf("Entries yields %v, Writers %v", seen, v.Writers())
	}
	return nil
}

func (m *model) clone() *model {
	out := newModel(m.window)
	out.meta, out.err = m.meta, m.err
	for w, e := range m.entries {
		out.entries[w] = own(e)
	}
	return out
}

func (m *model) count(w id.NodeID) int { return m.entries[w].Count }

func (m *model) tick(w id.NodeID, at Stamp, meta float64) {
	e := own(m.entries[w])
	if last := e.Last(); e.Count > 0 && last > at {
		at = last
	}
	e.Count++
	e.Stamps = append(e.Stamps, at)
	win := m.window
	if win == 0 {
		win = DefaultWindow
	}
	if win > 0 && len(e.Stamps) >= 2*win {
		e = e.compact(win)
	}
	m.entries[w] = e
	m.meta = meta
}

func (m *model) compact(window int) {
	if window == 0 {
		window = DefaultWindow
	}
	for w, e := range m.entries {
		m.entries[w] = own(e.compact(window))
	}
}

func (m *model) truncate(w id.NodeID, count int) {
	e, ok := m.entries[w]
	if !ok || e.Count <= count {
		return
	}
	if count <= 0 {
		delete(m.entries, w)
		return
	}
	m.entries[w] = own(e.Prefix(count))
}

func (m *model) counts() *model {
	out := newModel(m.window)
	out.meta, out.err = m.meta, m.err
	for w, e := range m.entries {
		out.entries[w] = Entry{Count: e.Count, Base: e.Count, Watermark: e.Last()}
	}
	return out
}

func (m *model) above(floor *model) *model {
	out := m.clone()
	for w, e := range out.entries {
		keep := min(floor.count(w), e.Count)
		if drop := keep - e.Base; drop > 0 {
			e.Watermark = e.Stamps[drop-1]
			e.Base = keep
			e.Stamps = own(Entry{Stamps: e.Stamps[drop:]}).Stamps
		}
		out.entries[w] = e
	}
	return out
}

func (m *model) total() int {
	t := 0
	for _, e := range m.entries {
		t += e.Count
	}
	return t
}

// modelCompare visits every writer of both models without asking which
// side holds it.
func modelCompare(u, v *model) Ordering {
	uAhead, vAhead := false, false
	for n, e := range u.entries {
		switch c := v.entries[n].Count; {
		case e.Count > c:
			uAhead = true
		case e.Count < c:
			vAhead = true
		}
	}
	for n, e := range v.entries {
		if _, ok := u.entries[n]; !ok && e.Count > 0 {
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

func modelMerge(u, v *model) *model {
	out := newModel(u.window)
	if out.window == 0 {
		out.window = v.window
	}
	for n, e := range u.entries {
		out.entries[n] = own(e)
	}
	for n, e := range v.entries {
		if cur, ok := out.entries[n]; !ok || e.Count > cur.Count {
			out.entries[n] = own(e)
		}
	}
	switch modelCompare(u, v) {
	case Greater, Equal:
		out.meta = u.meta
	case Less:
		out.meta = v.meta
	default:
		if u.total() >= v.total() {
			out.meta = u.meta
		} else {
			out.meta = v.meta
		}
	}
	return out
}

func modelCountDiff(u, ref *model) (missing, extra int) {
	for n, e := range ref.entries {
		if d := e.Count - u.entries[n].Count; d > 0 {
			missing += d
		}
	}
	for n, e := range u.entries {
		if d := e.Count - ref.entries[n].Count; d > 0 {
			extra += d
		}
	}
	return missing, extra
}

func modelLastConsistentStamp(u, ref *model) Stamp {
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
	writers := make(map[id.NodeID]struct{}, len(u.entries)+len(ref.entries))
	for n := range u.entries {
		writers[n] = struct{}{}
	}
	for n := range ref.entries {
		writers[n] = struct{}{}
	}
	var common Stamp
	for n := range writers {
		ue, re := u.entries[n], ref.entries[n]
		shared := min(ue.Count, re.Count)
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

func modelTriple(u, ref *model) Triple {
	missing, extra := modelCountDiff(u, ref)
	if missing == 0 && extra == 0 {
		return Triple{}
	}
	var latest Stamp
	for _, e := range ref.entries {
		if s := e.Last(); e.Count > 0 && s > latest {
			latest = s
		}
	}
	stale := max((latest - modelLastConsistentStamp(u, ref)).Seconds(), 0)
	num := u.meta - ref.meta
	if num < 0 {
		num = -num
	}
	return Triple{Numerical: num, Order: float64(missing + extra), Staleness: stale}
}

// checkPair reports the first two-vector read (Compare, CountDiff,
// LastConsistentStamp, TripleAgainst, Merge) on which u and v, in either
// order, answer other than their models mu and mv.
func checkPair(u, v *Vector, mu, mv *model) error {
	for _, p := range [][2]int{{0, 1}, {1, 0}} {
		vs, ms := [2]*Vector{u, v}, [2]*model{mu, mv}
		a, b, ma, mb := vs[p[0]], vs[p[1]], ms[p[0]], ms[p[1]]
		if got, want := Compare(a, b), modelCompare(ma, mb); got != want {
			return fmt.Errorf("Compare(%v, %v) = %v, model %v", a, b, got, want)
		}
		gm, ge := CountDiff(a, b)
		wm, we := modelCountDiff(ma, mb)
		if gm != wm || ge != we {
			return fmt.Errorf("CountDiff(%v, %v) = (%d,%d), model (%d,%d)", a, b, gm, ge, wm, we)
		}
		if got, want := LastConsistentStamp(a, b), modelLastConsistentStamp(ma, mb); got != want {
			return fmt.Errorf("LastConsistentStamp(%v, %v) = %v, model %v", a, b, got, want)
		}
		if got, want := TripleAgainst(a, b), modelTriple(ma, mb); got != want {
			return fmt.Errorf("TripleAgainst(%v, %v) = %v, model %v", a, b, got, want)
		}
		if err := modelMerge(ma, mb).check(Merge(a, b)); err != nil {
			return fmt.Errorf("Merge(%v, %v): %v", a, b, err)
		}
	}
	return nil
}

// AboveMatchesModel reports whether v.Above(floor) and Compare of the two
// answer as the map model does. It is exported for the vv_test fuzzers.
func AboveMatchesModel(v, floor *Vector) error {
	mv, mf := modelOf(v), modelOf(floor)
	if err := mv.above(mf).check(v.Above(floor)); err != nil {
		return fmt.Errorf("Above: %v", err)
	}
	if err := mv.counts().check(v.Counts()); err != nil {
		return fmt.Errorf("Counts: %v", err)
	}
	return checkPair(v, floor, mv, mf)
}
