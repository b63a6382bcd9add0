package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func sampleSeries() *Series {
	s := &Series{Name: "level"}
	s.Add(5*time.Second, 1.0)
	s.Add(10*time.Second, 0.95)
	s.Add(15*time.Second, 0.90)
	s.Add(20*time.Second, 1.0)
	return s
}

func TestSeriesStats(t *testing.T) {
	s := sampleSeries()
	if s.Min() != 0.90 || s.Max() != 1.0 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
	want := (1.0 + 0.95 + 0.90 + 1.0) / 4
	if math.Abs(s.Mean()-want) > 1e-12 {
		t.Fatalf("mean = %g", s.Mean())
	}
}

func TestEmptySeriesNaN(t *testing.T) {
	s := &Series{}
	if !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) || !math.IsNaN(s.Mean()) {
		t.Fatal("empty series should be NaN")
	}
}

func TestMinAfterAndBetween(t *testing.T) {
	s := sampleSeries()
	if got := s.MinAfter(16 * time.Second); got != 1.0 {
		t.Fatalf("MinAfter = %g", got)
	}
	if got := s.MinBetween(6*time.Second, 16*time.Second); got != 0.90 {
		t.Fatalf("MinBetween = %g", got)
	}
	if !math.IsNaN(s.MinBetween(100*time.Second, 200*time.Second)) {
		t.Fatal("empty window should be NaN")
	}
}

func TestRecorderSeriesAndScalars(t *testing.T) {
	r := NewRecorder()
	r.Series("a").Add(time.Second, 1)
	r.Series("b").Add(time.Second, 2)
	r.Series("a").Add(2*time.Second, 3)
	if len(r.Series("a").Points) != 2 {
		t.Fatal("series not shared by name")
	}
	r.SetScalar("x", 7)
	if r.Scalar("x") != 7 {
		t.Fatal("scalar lost")
	}
}

func TestTableRendering(t *testing.T) {
	out := Table("T", []string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"b", "22"},
	})
	for _, want := range []string{"T", "name", "alpha", "22", "----"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestSeriesTableMergesTimestamps(t *testing.T) {
	a := &Series{Name: "a"}
	a.Add(5*time.Second, 1)
	b := &Series{Name: "b"}
	b.Add(10*time.Second, 2)
	out := SeriesTable("F", a, b)
	if !strings.Contains(out, "5") || !strings.Contains(out, "10") {
		t.Fatalf("missing timestamps:\n%s", out)
	}
	if !strings.Contains(out, "1.0000") || !strings.Contains(out, "2.0000") {
		t.Fatalf("missing values:\n%s", out)
	}
}
