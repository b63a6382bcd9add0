package vv

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"idea/internal/id"
)

func sec(s float64) Stamp { return Stamp(s * 1e9) }

const (
	nodeA = id.NodeID(1)
	nodeB = id.NodeID(2)
	nodeC = id.NodeID(3)
)

func TestNewVectorIsEmptyAndConsistent(t *testing.T) {
	v := New()
	if v.TotalCount() != 0 {
		t.Fatalf("TotalCount = %d, want 0", v.TotalCount())
	}
	if !v.Err.Zero() {
		t.Fatalf("new vector triple = %v, want zero", v.Err)
	}
	if got := Compare(v, New()); got != Equal {
		t.Fatalf("Compare(empty, empty) = %v, want equal", got)
	}
}

func TestTickRecordsCountStampMeta(t *testing.T) {
	v := New()
	v.Tick(nodeA, sec(1), 5)
	v.Tick(nodeA, sec(2), 7)
	if v.Count(nodeA) != 2 {
		t.Fatalf("Count = %d, want 2", v.Count(nodeA))
	}
	if v.Meta != 7 {
		t.Fatalf("Meta = %g, want 7", v.Meta)
	}
	e := v.Entry(nodeA)
	if len(e.Stamps) != 2 || e.Stamps[0] != sec(1) || e.Stamps[1] != sec(2) {
		t.Fatalf("Stamps = %v", e.Stamps)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTickClampsBackwardsClock(t *testing.T) {
	v := New()
	v.Tick(nodeA, sec(5), 1)
	v.Tick(nodeA, sec(3), 2) // clock stepped backwards
	if err := v.Validate(); err != nil {
		t.Fatalf("clamped vector invalid: %v", err)
	}
	if got := v.Entry(nodeA).Stamps[1]; got != sec(5) {
		t.Fatalf("stamp = %v, want clamped to 5s", got)
	}
}

func TestCompareOrderings(t *testing.T) {
	base := New()
	base.Tick(nodeA, sec(1), 0)

	ahead := base.Clone()
	ahead.Tick(nodeA, sec(2), 0)

	concurrent := base.Clone()
	concurrent.Tick(nodeB, sec(2), 0)

	tests := []struct {
		name string
		u, v *Vector
		want Ordering
	}{
		{"equal", base, base.Clone(), Equal},
		{"less", base, ahead, Less},
		{"greater", ahead, base, Greater},
		{"concurrent", ahead, concurrent, Concurrent},
	}
	for _, tt := range tests {
		if got := Compare(tt.u, tt.v); got != tt.want {
			t.Errorf("%s: Compare = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestCompareUnknownWriterCountsAsAhead(t *testing.T) {
	u := New()
	v := New()
	v.Tick(nodeC, sec(1), 0)
	if got := Compare(u, v); got != Less {
		t.Fatalf("Compare = %v, want less", got)
	}
}

// TestPaperExample reproduces the §4.4.1 walkthrough: replica a misses one
// update, has two extra, metadata gap 3, last consistent at time 1 while
// the reference's most recent update is at time 3 → triple <3, 3, 2s>.
func TestPaperExample(t *testing.T) {
	a := New()
	a.Tick(nodeA, sec(1), 6)
	a.Tick(nodeA, sec(2), 7)
	a.Tick(nodeA, sec(2.5), 8)

	ref := New()
	ref.Tick(nodeA, sec(1), 6)
	ref.Tick(nodeB, sec(3), 5)

	if got := Compare(a, ref); got != Concurrent {
		t.Fatalf("Compare = %v, want concurrent", got)
	}
	tr := TripleAgainst(a, ref)
	if tr.Numerical != 3 {
		t.Errorf("numerical = %g, want 3", tr.Numerical)
	}
	if tr.Order != 3 {
		t.Errorf("order = %g, want 3 (1 missing + 2 extra)", tr.Order)
	}
	if tr.Staleness != 2 {
		t.Errorf("staleness = %g, want 2", tr.Staleness)
	}
}

func TestTripleAgainstConsistentReplicaIsZero(t *testing.T) {
	a := New()
	a.Tick(nodeA, sec(1), 5)
	if tr := TripleAgainst(a, a.Clone()); !tr.Zero() {
		t.Fatalf("triple = %v, want zero", tr)
	}
}

func TestCountDiff(t *testing.T) {
	u := New()
	u.Tick(nodeA, sec(1), 0)
	u.Tick(nodeA, sec(2), 0)
	ref := New()
	ref.Tick(nodeA, sec(1), 0)
	ref.Tick(nodeB, sec(2), 0)
	ref.Tick(nodeB, sec(3), 0)
	missing, extra := CountDiff(u, ref)
	if missing != 2 || extra != 1 {
		t.Fatalf("CountDiff = (%d, %d), want (2, 1)", missing, extra)
	}
}

func TestMergeDominatesBoth(t *testing.T) {
	u := New()
	u.Tick(nodeA, sec(1), 1)
	v := New()
	v.Tick(nodeB, sec(2), 2)
	m := Merge(u, v)
	if !Dominates(m, u) || !Dominates(m, v) {
		t.Fatalf("merge %v does not dominate inputs", m)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeMetaFollowsDominant(t *testing.T) {
	u := New()
	u.Tick(nodeA, sec(1), 1)
	v := u.Clone()
	v.Tick(nodeA, sec(2), 9)
	if m := Merge(u, v); m.Meta != 9 {
		t.Fatalf("Meta = %g, want dominant 9", m.Meta)
	}
	if m := Merge(v, u); m.Meta != 9 {
		t.Fatalf("Meta (flipped) = %g, want dominant 9", m.Meta)
	}
}

func TestLastConsistentStampNoDivergence(t *testing.T) {
	u := New()
	u.Tick(nodeA, sec(1), 0)
	ref := u.Clone()
	ref.Tick(nodeB, sec(4), 0)
	// u is strictly behind: common prefix ends at 1, divergence at 4.
	if got := LastConsistentStamp(u, ref); got != sec(1) {
		t.Fatalf("LastConsistentStamp = %v, want 1s", got)
	}
}

func TestLatestStamp(t *testing.T) {
	v := New()
	if LatestStamp(v) != 0 {
		t.Fatal("empty vector should have zero latest stamp")
	}
	v.Tick(nodeA, sec(1), 0)
	v.Tick(nodeB, sec(7), 0)
	if got := LatestStamp(v); got != sec(7) {
		t.Fatalf("LatestStamp = %v, want 7s", got)
	}
}

func TestStringNotation(t *testing.T) {
	v := New()
	v.Tick(nodeA, sec(1), 5)
	s := v.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, want := range []string{"n1:1", "[5]"} {
		if !contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// randomVector builds a small random vector for property tests.
func randomVector(r *rand.Rand) *Vector {
	v := New()
	writers := []id.NodeID{nodeA, nodeB, nodeC}
	n := r.Intn(8)
	at := Stamp(0)
	for i := 0; i < n; i++ {
		at += Stamp(r.Intn(3)+1) * 1e9
		v.Tick(writers[r.Intn(len(writers))], at, float64(r.Intn(20)))
	}
	return v
}

type vecPair struct{ U, V *Vector }

// Generate implements quick.Generator.
func (vecPair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(vecPair{randomVector(r), randomVector(r)})
}

func TestQuickMergeCommutativeOnCounts(t *testing.T) {
	f := func(p vecPair) bool {
		a, b := Merge(p.U, p.V), Merge(p.V, p.U)
		return Compare(a, b) == Equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeIdempotent(t *testing.T) {
	f := func(p vecPair) bool {
		m := Merge(p.U, p.V)
		return Compare(Merge(m, p.U), m) == Equal && Compare(Merge(m, p.V), m) == Equal
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeDominates(t *testing.T) {
	f := func(p vecPair) bool {
		m := Merge(p.U, p.V)
		return Dominates(m, p.U) && Dominates(m, p.V) && m.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	flip := map[Ordering]Ordering{Equal: Equal, Less: Greater, Greater: Less, Concurrent: Concurrent}
	f := func(p vecPair) bool {
		return Compare(p.V, p.U) == flip[Compare(p.U, p.V)]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTripleZeroIffNoCountDiff(t *testing.T) {
	f := func(p vecPair) bool {
		missing, extra := CountDiff(p.U, p.V)
		tr := TripleAgainst(p.U, p.V)
		if missing == 0 && extra == 0 {
			return tr.Zero()
		}
		return tr.Order == float64(missing+extra) && tr.Staleness >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneIndependent(t *testing.T) {
	f := func(p vecPair) bool {
		c := p.U.Clone()
		c.Tick(nodeA, LatestStamp(c)+1e9, 99)
		return Compare(c, p.U) != Equal || p.U.Count(nodeA) == c.Count(nodeA)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesAscending(t *testing.T) {
	v := New()
	for w := id.NodeID(9); w >= 1; w-- {
		v.Tick(w, sec(float64(10-w)), 0)
	}
	v.Tick(5, sec(20), 0)
	var got []id.NodeID
	for w, e := range v.Entries {
		want := 1
		if w == 5 {
			want = 2
		}
		if e.Count != want {
			t.Fatalf("writer %v count %d, want %d", w, e.Count, want)
		}
		got = append(got, w)
	}
	if want := []id.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("Entries yields %v, want %v", got, want)
	}
	if w := v.Writers(); !slices.Equal(w, got) {
		t.Fatalf("Writers = %v, want %v", w, got)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTruncateDuringEntries pins what a caller may do inside the Entries
// loop: cut the yielded writer to a positive count. Every writer is still
// visited once, and the cuts land.
func TestTruncateDuringEntries(t *testing.T) {
	v := New()
	for i := 0; i < 10; i++ {
		for w := id.NodeID(1); w <= 4; w++ {
			v.Tick(w, sec(float64(i+1)), 0)
		}
	}
	visited := 0
	for w, e := range v.Entries {
		visited++
		if e.Count > 4 {
			v.TruncateWriter(w, e.Count-4)
		}
	}
	if visited != 4 {
		t.Fatalf("visited %d writers, want 4", visited)
	}
	for w := id.NodeID(1); w <= 4; w++ {
		if c := v.Count(w); c != 6 {
			t.Fatalf("writer %v count %d, want 6", w, c)
		}
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSortEntriesLastDuplicateWins: AppendEntry in any order, repeats
// included, then SortEntries gives the vector a map model gets from the
// same list with each writer's last entry winning.
func TestSortEntriesLastDuplicateWins(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		v, m := New(), newModel(0)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			w := id.NodeID(rng.Intn(16) - 4)
			e := Entry{Count: 1, Stamps: []Stamp{Stamp(i)}}
			v.AppendEntry(w, e)
			m.entries[w] = own(e)
		}
		v.SortEntries()
		if err := v.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := m.check(v); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
