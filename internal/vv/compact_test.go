package vv

import "testing"

func TestTickAutoCompactsBounded(t *testing.T) {
	v := NewWindowed(8)
	for i := 0; i < 1000; i++ {
		v.Tick(nodeA, sec(float64(i+1)), float64(i))
	}
	e := v.Entry(nodeA)
	if e.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", e.Count)
	}
	if len(e.Stamps) >= 16 {
		t.Fatalf("window holds %d stamps, want < 2×8", len(e.Stamps))
	}
	if e.Base+len(e.Stamps) != e.Count {
		t.Fatalf("base %d + window %d != count %d", e.Base, len(e.Stamps), e.Count)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := e.Last(); got != sec(1000) {
		t.Fatalf("Last = %v, want 1000s", got)
	}
}

func TestStampAtWindowSemantics(t *testing.T) {
	v := NewWindowed(4)
	for i := 0; i < 12; i++ {
		v.Tick(nodeA, sec(float64(i+1)), 0)
	}
	v.Compact(4)
	e := v.Entry(nodeA)
	if e.Base != 8 || e.Watermark != sec(8) {
		t.Fatalf("base=%d watermark=%v, want 8/8s", e.Base, e.Watermark)
	}
	if s, ok := e.StampAt(11); !ok || s != sec(12) {
		t.Fatalf("StampAt(11) = %v,%v", s, ok)
	}
	if s, ok := e.StampAt(8); !ok || s != sec(9) {
		t.Fatalf("StampAt(8) = %v,%v", s, ok)
	}
	// Compacted index: watermark upper bound, ok=false.
	if s, ok := e.StampAt(3); ok || s != sec(8) {
		t.Fatalf("StampAt(3) = %v,%v, want watermark 8s,false", s, ok)
	}
	if _, ok := e.StampAt(12); ok {
		t.Fatal("StampAt past Count reported in-window")
	}
}

func TestCompactedCompareIdentical(t *testing.T) {
	// Counts are never compacted, so Compare verdicts are exact at any
	// window — including far-beyond-window divergence.
	full := NewWindowed(-1)
	tiny := NewWindowed(2)
	for i := 0; i < 100; i++ {
		full.Tick(nodeA, sec(float64(i+1)), 0)
		tiny.Tick(nodeA, sec(float64(i+1)), 0)
	}
	other := New()
	other.Tick(nodeB, sec(1), 0)
	if Compare(full, other) != Compare(tiny, other) {
		t.Fatal("compacted Compare diverged from full")
	}
	if Compare(tiny, full) != Equal {
		t.Fatal("same history at different windows not Equal")
	}
}

func TestCompactedStalenessExactWithinWindow(t *testing.T) {
	// Divergence 3 updates back, window 8: staleness must match the
	// uncompacted computation exactly.
	mk := func(window int) (*Vector, *Vector) {
		u, ref := NewWindowed(window), NewWindowed(window)
		for i := 0; i < 20; i++ {
			s := sec(float64(i + 1))
			u.Tick(nodeA, s, float64(i))
			ref.Tick(nodeA, s, float64(i))
		}
		ref.Tick(nodeB, sec(25), 99) // ref diverges at t=25
		u.Tick(nodeA, sec(26), 50)   // u diverges at t=26
		return u, ref
	}
	fu, fref := mk(-1)
	cu, cref := mk(8)
	cu.Compact(8)
	cref.Compact(8)
	ft, ct := TripleAgainst(fu, fref), TripleAgainst(cu, cref)
	if ft != ct {
		t.Fatalf("within-window triple: full %v != compacted %v", ft, ct)
	}
}

func TestCompactedStalenessConservativeBeyondWindow(t *testing.T) {
	// u is 50 updates behind with window 4: the divergence point is
	// compacted out of ref's window, so the fallback must report at
	// least the true staleness (never less).
	mkRef := func(window int) *Vector {
		ref := NewWindowed(window)
		for i := 0; i < 60; i++ {
			ref.Tick(nodeA, sec(float64(i+1)), float64(i))
		}
		return ref
	}
	u := New()
	for i := 0; i < 10; i++ {
		u.Tick(nodeA, sec(float64(i+1)), float64(i))
	}
	fullRef := mkRef(-1)
	compRef := mkRef(4)
	compRef.Compact(4)
	ft := TripleAgainst(u, fullRef)
	ct := TripleAgainst(u, compRef)
	if ct.Numerical != ft.Numerical || ct.Order != ft.Order {
		t.Fatalf("numerical/order changed: full %v, compacted %v", ft, ct)
	}
	if ct.Staleness < ft.Staleness {
		t.Fatalf("compacted staleness %g under-reports full %g", ct.Staleness, ft.Staleness)
	}
}

func TestPrefixEntry(t *testing.T) {
	v := NewWindowed(4)
	for i := 0; i < 12; i++ {
		v.Tick(nodeA, sec(float64(i+1)), 0)
	}
	v.Compact(4) // base 8, window 9..12
	e := v.Entry(nodeA)
	in := e.Prefix(10)
	if in.Count != 10 || in.Base != 8 || len(in.Stamps) != 2 {
		t.Fatalf("in-window prefix = %+v", in)
	}
	out := e.Prefix(5)
	if out.Count != 5 || out.Base != 5 || len(out.Stamps) != 0 {
		t.Fatalf("compacted-region prefix = %+v", out)
	}
	if out.Watermark != e.Watermark {
		t.Fatal("compacted-region prefix lost watermark bound")
	}
	zero := e.Prefix(0)
	if zero.Count != 0 || zero.Base != 0 || zero.Watermark != 0 {
		t.Fatalf("zero prefix = %+v", zero)
	}
}

func TestTruncateWriter(t *testing.T) {
	v := New()
	for i := 0; i < 6; i++ {
		v.Tick(nodeA, sec(float64(i+1)), 0)
	}
	v.TruncateWriter(nodeA, 4)
	if v.Count(nodeA) != 4 {
		t.Fatalf("count = %d, want 4", v.Count(nodeA))
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	v.TruncateWriter(nodeA, 0)
	if v.Has(nodeA) {
		t.Fatal("zero truncation kept entry")
	}
	v.TruncateWriter(nodeB, 3) // unknown writer: no-op
	if v.Len() != 0 {
		t.Fatal("truncating unknown writer created entry")
	}
}

func TestWindowStampsAndCompactedCount(t *testing.T) {
	v := NewWindowed(4)
	ticked := 0 // what Tick reports the windows gained, compactions included
	for i := 0; i < 10; i++ {
		ticked += v.Tick(nodeA, sec(float64(i+1)), 0)
		ticked += v.Tick(nodeB, sec(float64(i+1)), 0)
	}
	if got := v.WindowStamps(); got != ticked {
		t.Fatalf("WindowStamps = %d, Tick deltas sum to %d", got, ticked)
	}
	v.Compact(4)
	if got := v.WindowStamps(); got != 8 {
		t.Fatalf("WindowStamps = %d, want 8", got)
	}
	if got := v.CompactedCount(); got != 12 {
		t.Fatalf("CompactedCount = %d, want 12", got)
	}
}

func TestMergePreservesWindowBookkeeping(t *testing.T) {
	u := NewWindowed(4)
	for i := 0; i < 20; i++ {
		u.Tick(nodeA, sec(float64(i+1)), 0)
	}
	v := u.Clone()
	v.Tick(nodeB, sec(30), 0)
	m := Merge(u, v)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !Dominates(m, u) || !Dominates(m, v) {
		t.Fatal("merge of compacted vectors does not dominate")
	}
}

func TestTickClampAcrossCompaction(t *testing.T) {
	// The backwards-clock clamp must hold against the watermark when the
	// window is empty after compaction.
	v := NewWindowed(1)
	v.Tick(nodeA, sec(10), 0)
	v.Tick(nodeA, sec(11), 0) // triggers compaction at 2×1
	v.Tick(nodeA, sec(5), 0)  // clock stepped backwards
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := v.Entry(nodeA).Last(); got < sec(11) {
		t.Fatalf("clamp lost across compaction: last = %v", got)
	}
}
