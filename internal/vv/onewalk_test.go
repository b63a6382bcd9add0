package vv

import (
	"testing"

	"idea/internal/id"
)

// The two-walk forms of Compare, CountDiff and LastConsistentStamp, kept as
// the oracle for the one-walk versions: each visits every writer of both
// vectors without asking which side holds it.

func compareTwoWalk(u, v *Vector) Ordering {
	uAhead, vAhead := false, false
	for n, e := range u.Entries {
		switch c := v.Entries[n].Count; {
		case e.Count > c:
			uAhead = true
		case e.Count < c:
			vAhead = true
		}
	}
	for n, e := range v.Entries {
		if _, ok := u.Entries[n]; !ok && e.Count > 0 {
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

func countDiffTwoWalk(u, ref *Vector) (missing, extra int) {
	for n, e := range ref.Entries {
		if d := e.Count - u.Entries[n].Count; d > 0 {
			missing += d
		}
	}
	for n, e := range u.Entries {
		if d := e.Count - ref.Entries[n].Count; d > 0 {
			extra += d
		}
	}
	return missing, extra
}

func lastConsistentStampTwoWalk(u, ref *Vector) Stamp {
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
	writers := make(map[id.NodeID]struct{}, len(u.Entries)+len(ref.Entries))
	for n := range u.Entries {
		writers[n] = struct{}{}
	}
	for n := range ref.Entries {
		writers[n] = struct{}{}
	}
	var common Stamp
	for n := range writers {
		ue, re := u.Entries[n], ref.Entries[n]
		shared := ue.Count
		if re.Count < shared {
			shared = re.Count
		}
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

// oneWalkPair builds two vectors over writers 1..5 from data, three bytes
// per writer and side: presence and count (a writer may be on one side
// only, or present with count 0), how much of the window is compacted, and
// a stamp offset so the two sides' histories of one writer can diverge.
func oneWalkPair(data []byte) (u, v *Vector) {
	u, v = New(), New()
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	for w := 1; w <= 5; w++ {
		for side, vec := range []*Vector{u, v} {
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
			vec.Entries[id.NodeID(w)] = e
		}
	}
	return u, v
}

// FuzzCompareOneWalk checks that the one-walk Compare, CountDiff and
// LastConsistentStamp answer exactly as the two-walk oracle, in both
// argument orders, over vectors with writers on one side only, zero
// counts and compacted windows.
func FuzzCompareOneWalk(f *testing.F) {
	// A writer only in v (u would miss it without v's walk), only in u,
	// present with count 0 on one side, and compacted on both.
	f.Add([]byte{5, 0, 0, 5, 0, 0, 0, 0, 0, 9, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 0, 0, 5, 0, 0, 5, 0, 0})
	f.Add([]byte{1, 0, 0, 13, 0, 0, 2, 0, 0, 0, 0, 0})
	f.Add([]byte{25, 3, 1, 21, 2, 2, 0, 0, 0, 17, 1, 0, 14, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, v := oneWalkPair(data)
		for _, p := range [][2]*Vector{{u, v}, {v, u}} {
			a, b := p[0], p[1]
			if got, want := Compare(a, b), compareTwoWalk(a, b); got != want {
				t.Fatalf("Compare(%v, %v) = %v, oracle %v", a, b, got, want)
			}
			gm, ge := CountDiff(a, b)
			wm, we := countDiffTwoWalk(a, b)
			if gm != wm || ge != we {
				t.Fatalf("CountDiff(%v, %v) = (%d,%d), oracle (%d,%d)", a, b, gm, ge, wm, we)
			}
			if got, want := LastConsistentStamp(a, b), lastConsistentStampTwoWalk(a, b); got != want {
				t.Fatalf("LastConsistentStamp(%v, %v) = %v, oracle %v", a, b, got, want)
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
