package vv

import (
	"testing"

	"idea/internal/id"
)

// oneWalkPair builds two vectors over writers 1..5 from data, three bytes
// per writer and side: presence and count (a writer may be on one side
// only, or present with count 0), how much of the window is compacted, and
// a stamp offset so the two sides' histories of one writer can diverge.
// The models hold the same entries.
func oneWalkPair(data []byte) (u, v *Vector, mu, mv *model) {
	u, v = New(), New()
	mu, mv = newModel(0), newModel(0)
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	for w := 1; w <= 5; w++ {
		for side, vec := range []*Vector{u, v} {
			m := [2]*model{mu, mv}[side]
			k := ((w-1)*2 + side) * 3
			b := at(k)
			if b%4 == 0 {
				continue // writer absent on this side
			}
			count := int(b/4) % 7
			base := int(at(k+1)) % (count + 1)
			off := Stamp(at(k+2) % 3)
			stamp := func(i int) Stamp { return Stamp(w) + Stamp(i)*10 + off*Stamp(i/2) }
			e := Entry{Count: count, Base: base}
			if base > 0 {
				e.Watermark = stamp(base - 1)
			}
			for i := base; i < count; i++ {
				e.Stamps = append(e.Stamps, stamp(i))
			}
			vec.SetEntry(id.NodeID(w), e)
			m.entries[id.NodeID(w)] = own(e)
		}
	}
	return u, v, mu, mv
}

// FuzzCompareOneWalk checks that the merge-walk Compare, CountDiff,
// LastConsistentStamp, TripleAgainst and Merge answer exactly as the map
// model's two-walk forms, in both argument orders, over vectors with
// writers on one side only, zero counts and compacted windows.
func FuzzCompareOneWalk(f *testing.F) {
	// A writer only in v (u would miss it without v's walk), only in u,
	// present with count 0 on one side, and compacted on both.
	f.Add([]byte{5, 0, 0, 5, 0, 0, 0, 0, 0, 9, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 5, 0, 0, 5, 0, 0})
	f.Add([]byte{1, 0, 0, 13, 0, 0, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{25, 3, 1, 21, 2, 2, 0, 0, 0, 17, 1, 0, 14, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, v, mu, mv := oneWalkPair(data)
		if err := checkPair(u, v, mu, mv); err != nil {
			t.Fatal(err)
		}
		// The same entries set in map order, not ascending, make the
		// same vectors.
		for _, m := range []*model{mu, mv} {
			if err := m.check(m.vector()); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestOneWalkAllocatesNothing pins the one-walk forms at zero allocations:
// LastConsistentStamp used to build a writer set per call.
func TestOneWalkAllocatesNothing(t *testing.T) {
	u := benchVector(8, 200)
	v := u.Clone()
	v.Tick(9, 1e15, 0)
	u.Tick(1, 1e15, 0)
	if n := testing.AllocsPerRun(100, func() {
		Compare(u, v)
		CountDiff(u, v)
		LastConsistentStamp(u, v)
	}); n != 0 {
		t.Fatalf("one-walk reads allocate %v times per call, want 0", n)
	}
}
