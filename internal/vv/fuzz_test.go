package vv

import (
	"testing"

	"idea/internal/id"
)

// FuzzVectorOps drives a pair of vectors and their map models through an
// operation script encoded in bytes and checks, for any script, that each
// vector equals its model, that every two-vector read answers as the
// model's, and the core invariants: validity, compare antisymmetry, merge
// domination.
func FuzzVectorOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{9, 9, 9})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		u, v := New(), New()
		mu, mv := newModel(0), newModel(0)
		at := Stamp(0)
		for _, b := range script {
			at += Stamp(b%7+1) * 1e8
			writer := id.NodeID(b%5 + 1)
			switch b % 4 {
			case 0:
				u.Tick(writer, at, float64(b))
				mu.tick(writer, at, float64(b))
			case 1:
				v.Tick(writer, at, float64(b))
				mv.tick(writer, at, float64(b))
			case 2:
				u, mu = Merge(u, v), modelMerge(mu, mv)
			case 3:
				v, mv = v.Clone(), mv.clone()
			}
		}
		if err := u.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := v.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := mu.check(u); err != nil {
			t.Fatalf("u: %v", err)
		}
		if err := mv.check(v); err != nil {
			t.Fatalf("v: %v", err)
		}
		if err := checkPair(u, v, mu, mv); err != nil {
			t.Fatal(err)
		}
		flip := map[Ordering]Ordering{Equal: Equal, Less: Greater, Greater: Less, Concurrent: Concurrent}
		if Compare(v, u) != flip[Compare(u, v)] {
			t.Fatal("compare not antisymmetric")
		}
		m := Merge(u, v)
		if !Dominates(m, u) || !Dominates(m, v) {
			t.Fatal("merge does not dominate")
		}
		tr := TripleAgainst(u, v)
		if tr.Order < 0 || tr.Staleness < 0 || tr.Numerical < 0 {
			t.Fatalf("negative triple %v", tr)
		}
	})
}

// FuzzCloneIsolation checks what lets Clone share stamp windows: a script
// of Tick, Compact, TruncateWriter, Prefix, Merge, Counts and Clone runs on
// an original and on the vectors derived from it, and after every step
// each vector must equal its oracle — a map model that got the same
// operations and never shares memory with anything. A clone that kept
// spare capacity on a shared window would let one vector's Tick overwrite
// another's newest stamp.
func FuzzCloneIsolation(f *testing.F) {
	// Three ticks leave spare capacity; clone; tick both.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 8, 0, 16, 0, 7, 0, 2, 1, 0, 1, 5, 0, 3, 2, 4, 1, 6, 0, 1, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, script []byte) {
		const maxVecs = 8
		vecs := []*Vector{NewWindowed(3)}
		oracles := []*model{newModel(3)}
		add := func(v *Vector, oracle *model) {
			if len(vecs) < maxVecs {
				vecs, oracles = append(vecs, v), append(oracles, oracle)
			}
		}
		at := Stamp(0)
		for i := 0; i+1 < len(script); i += 2 {
			op, hi := script[i]%8, int(script[i]/8)
			k := int(script[i+1]) % len(vecs)
			v, o := vecs[k], oracles[k]
			w := id.NodeID(hi%3 + 1)
			switch op {
			case 0, 1:
				at += Stamp(hi + 1)
				v.Tick(w, at, float64(at))
				o.tick(w, at, float64(at))
			case 2:
				v.Compact(hi%4 + 1)
				o.compact(hi%4 + 1)
			case 3:
				n := v.Count(w) - hi%4
				v.TruncateWriter(w, n)
				o.truncate(w, n)
			case 4:
				// Cut every writer by 0..2 updates; a cut of 0 takes
				// Prefix's clone path.
				cut := func(n id.NodeID, e Entry) Entry { return e.Prefix(e.Count - (hi+int(n))%3) }
				out, mo := v.Clone(), o.clone()
				for n, e := range out.Entries {
					out.SetEntry(n, cut(n, e))
				}
				for n, e := range mo.entries {
					mo.entries[n] = own(cut(n, e))
				}
				add(out, mo)
			case 5:
				j := hi % len(vecs)
				add(Merge(v, vecs[j]), modelMerge(o, oracles[j]))
			case 6:
				add(v.Counts(), o.counts())
			case 7:
				add(v.Clone(), o.clone())
			}
			for j := range vecs {
				if err := vecs[j].Validate(); err != nil {
					t.Fatalf("step %d: vector %d: %v", i/2, j, err)
				}
				if err := oracles[j].check(vecs[j]); err != nil {
					t.Fatalf("step %d: vector %d = %v: %v", i/2, j, vecs[j], err)
				}
			}
		}
	})
}

// divergenceWithinWindow reports whether every stamp the staleness
// derivation needs — the end of each writer's shared prefix and the first
// divergent update on either side — is still inside both vectors' windows.
func divergenceWithinWindow(u, ref *Vector) bool {
	writers := map[id.NodeID]struct{}{}
	for _, n := range append(u.Writers(), ref.Writers()...) {
		writers[n] = struct{}{}
	}
	for n := range writers {
		ue, re := u.Entry(n), ref.Entry(n)
		shared := ue.Count
		if re.Count < shared {
			shared = re.Count
		}
		if shared > 0 {
			if _, ok := ue.StampAt(shared - 1); !ok {
				return false
			}
		}
		for _, e := range []Entry{ue, re} {
			if e.Count > shared {
				if _, ok := e.StampAt(shared); !ok {
					return false
				}
			}
		}
	}
	return true
}

// FuzzCompactedEquivalence drives a full-history vector pair and a
// window-compacted twin through the same update script and asserts the
// tentpole contract: Compare and the numerical/order error components are
// identical at any window; staleness (and therefore Score) is identical
// whenever the divergence lies within the window, and conservatively
// pessimistic — never optimistic — beyond it. Each of the four vectors
// also tracks a map model, and every two-vector read of each pair answers
// as the models'.
func FuzzCompactedEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1}, uint8(2))
	f.Add([]byte{9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, script []byte, window uint8) {
		win := int(window%6) + 1
		fu, fv := NewWindowed(-1), NewWindowed(-1) // full history
		cu, cv := NewWindowed(win), NewWindowed(win)
		mfu, mfv := newModel(-1), newModel(-1)
		mcu, mcv := newModel(win), newModel(win)
		at := Stamp(0)
		for _, b := range script {
			at += Stamp(b%7+1) * 1e8
			writer := id.NodeID(b%5 + 1)
			meta := float64(b)
			if b%2 == 0 {
				fu.Tick(writer, at, meta)
				cu.Tick(writer, at, meta)
				mfu.tick(writer, at, meta)
				mcu.tick(writer, at, meta)
			} else {
				fv.Tick(writer, at, meta)
				cv.Tick(writer, at, meta)
				mfv.tick(writer, at, meta)
				mcv.tick(writer, at, meta)
			}
			if b%8 == 7 {
				cu.Compact(win)
				cv.Compact(win)
				mcu.compact(win)
				mcv.compact(win)
			}
		}
		for _, p := range []struct {
			v *Vector
			m *model
		}{{fu, mfu}, {fv, mfv}, {cu, mcu}, {cv, mcv}} {
			if err := p.m.check(p.v); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkPair(fu, fv, mfu, mfv); err != nil {
			t.Fatalf("full: %v", err)
		}
		if err := checkPair(cu, cv, mcu, mcv); err != nil {
			t.Fatalf("compacted: %v", err)
		}
		if err := cu.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := cv.Validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := Compare(cu, cv), Compare(fu, fv); got != want {
			t.Fatalf("Compare diverged: compacted %v, full %v", got, want)
		}
		fm, fe := CountDiff(fu, fv)
		cm, ce := CountDiff(cu, cv)
		if fm != cm || fe != ce {
			t.Fatalf("CountDiff diverged: full (%d,%d), compacted (%d,%d)", fm, fe, cm, ce)
		}
		ft := TripleAgainst(fu, fv)
		ct := TripleAgainst(cu, cv)
		if ft.Numerical != ct.Numerical || ft.Order != ct.Order {
			t.Fatalf("numerical/order diverged: full %v, compacted %v", ft, ct)
		}
		if divergenceWithinWindow(cu, cv) {
			if ft != ct {
				t.Fatalf("within-window triple diverged: full %v, compacted %v", ft, ct)
			}
		} else if ct.Staleness < ft.Staleness {
			t.Fatalf("conservative fallback under-reports: compacted %v < full %v", ct, ft)
		}
	})
}
