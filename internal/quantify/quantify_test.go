package quantify

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"idea/internal/id"
	"idea/internal/vv"
)

func TestEqualWeightsSumToOne(t *testing.T) {
	w := EqualWeights()
	if s := w.Numerical + w.Order + w.Staleness; math.Abs(s-1) > 1e-9 {
		t.Fatalf("sum = %g", s)
	}
}

func TestNormalize(t *testing.T) {
	w := Weights{Numerical: 2, Order: 1, Staleness: 1}.Normalize()
	if math.Abs(w.Numerical-0.5) > 1e-9 || math.Abs(w.Order-0.25) > 1e-9 {
		t.Fatalf("normalized = %+v", w)
	}
	if z := (Weights{}).Normalize(); math.Abs(z.Numerical-1.0/3) > 1e-9 {
		t.Fatalf("zero weights normalized to %+v, want equal", z)
	}
}

func TestWeightValidation(t *testing.T) {
	if err := (Weights{Numerical: -1}).Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := EqualWeights().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMaximaValidation(t *testing.T) {
	if err := (Maxima{}).Validate(); err == nil {
		t.Fatal("zero maxima accepted")
	}
	if err := DefaultMaxima().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFormula1PaperExample applies Formula 1 exactly as in Fig. 4(e):
// maxima all 10, equal weights, triple <3,3,2> →
// (7/10 + 7/10 + 8/10)/3 ≈ 0.7333.
func TestFormula1PaperExample(t *testing.T) {
	q := New(Maxima{10, 10, 10}, EqualWeights())
	got := q.Level(vv.Triple{Numerical: 3, Order: 3, Staleness: 2})
	want := (0.7 + 0.7 + 0.8) / 3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("level = %g, want %g", got, want)
	}
}

func TestLevelPerfectConsistencyIsOne(t *testing.T) {
	q := Default()
	if got := q.Level(vv.Triple{}); got != 1 {
		t.Fatalf("level of zero triple = %g, want 1", got)
	}
}

func TestLevelClampsAtMaxima(t *testing.T) {
	q := New(Maxima{10, 10, 10}, EqualWeights())
	if got := q.Level(vv.Triple{Numerical: 1e6, Order: 1e6, Staleness: 1e6}); got != 0 {
		t.Fatalf("level beyond maxima = %g, want 0", got)
	}
	if got := q.Level(vv.Triple{Numerical: -5}); got != 1 {
		t.Fatalf("negative errors should clamp to 0 error, got level %g", got)
	}
}

func TestZeroWeightDisablesMetric(t *testing.T) {
	q := New(Maxima{10, 10, 10}, Weights{Numerical: 0.4, Order: 0, Staleness: 0.6})
	full := q.Level(vv.Triple{Order: 10})
	if full != 1 {
		t.Fatalf("order error should be ignored with zero weight, level = %g", full)
	}
}

func TestSetWeightsRenormalizes(t *testing.T) {
	q := Default()
	q.SetWeights(Weights{Numerical: 3, Order: 3, Staleness: 3})
	if math.Abs(q.W.Numerical-1.0/3) > 1e-9 {
		t.Fatalf("weights = %+v", q.W)
	}
}

func TestScoreUsesCaster(t *testing.T) {
	q := Default()
	q.Cast = func(_, _ *vv.Vector) vv.Triple { return vv.Triple{Order: 30} }
	_, level := q.Score(vv.New(), vv.New())
	want := 2.0 / 3 // order term zeroed, other two full
	if math.Abs(level-want) > 1e-9 {
		t.Fatalf("level = %g, want %g", level, want)
	}
}

func TestDefaultCasterMatchesVV(t *testing.T) {
	a := vv.New()
	a.Tick(1, 1e9, 5)
	ref := vv.New()
	ref.Tick(2, 3e9, 8)
	got := DefaultCaster()(a, ref)
	want := vv.TripleAgainst(a, ref)
	if got != want {
		t.Fatalf("caster = %v, want %v", got, want)
	}
}

func candidates() map[id.NodeID]*vv.Vector {
	m := make(map[id.NodeID]*vv.Vector)
	for i := 1; i <= 4; i++ {
		v := vv.New()
		for j := 0; j < i; j++ {
			v.Tick(id.NodeID(i), vv.Stamp(j+1)*1e9, float64(j))
		}
		m[id.NodeID(i)] = v
	}
	return m
}

func TestHighestIDRef(t *testing.T) {
	n, v := HighestIDRef(candidates())
	if n != 4 || v.Count(4) != 4 {
		t.Fatalf("ref = %v", n)
	}
}

func TestMostUpdatesRef(t *testing.T) {
	c := candidates()
	c[1].Tick(1, 9e9, 0) // still fewer than node 4's
	n, _ := MostUpdatesRef(c)
	if n != 4 {
		t.Fatalf("ref = %v, want 4", n)
	}
	for i := 0; i < 10; i++ {
		c[2].Tick(2, vv.Stamp(20+i)*1e9, 0)
	}
	if n, _ := MostUpdatesRef(c); n != 2 {
		t.Fatalf("ref = %v, want 2 after it got most updates", n)
	}
}

func TestMergedRefDominatesAll(t *testing.T) {
	c := candidates()
	_, merged := MergedRef(c)
	for n, v := range c {
		if !vv.Dominates(merged, v) {
			t.Fatalf("merged ref does not dominate %v", n)
		}
	}
}

func TestRefSelectorsOnEmpty(t *testing.T) {
	if n, v := HighestIDRef(nil); n != 0 || v != nil {
		t.Fatal("empty HighestIDRef should be zero")
	}
	if _, v := MergedRef(nil); v != nil {
		t.Fatal("empty MergedRef should be nil")
	}
}

type tripleGen vv.Triple

func (tripleGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(tripleGen{
		Numerical: r.Float64() * 60,
		Order:     r.Float64() * 60,
		Staleness: r.Float64() * 60,
	})
}

func TestQuickLevelBounded(t *testing.T) {
	q := Default()
	f := func(g tripleGen) bool {
		l := q.Level(vv.Triple(g))
		return l >= 0 && l <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLevelMonotoneInError(t *testing.T) {
	q := Default()
	f := func(g tripleGen, extra uint8) bool {
		worse := vv.Triple(g)
		worse.Order += float64(extra%30) + 1
		return q.Level(worse) <= q.Level(vv.Triple(g))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOneMissedUpdateCost(t *testing.T) {
	// With default maxima and equal weights, one missed update costs
	// ~1.1% — the calibration DefaultMaxima documents.
	q := Default()
	base := q.Level(vv.Triple{})
	one := q.Level(vv.Triple{Order: 1})
	cost := base - one
	if cost < 0.008 || cost > 0.015 {
		t.Fatalf("one-update cost = %g, want ≈0.011", cost)
	}
}
