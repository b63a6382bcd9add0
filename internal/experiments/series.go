package experiments

// The recorder behind every regenerated table and figure: named time
// series sampled under virtual time, simple statistics, and fixed-width
// renderers that print the same rows/series the paper reports.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Point is one sample of a series.
type Point struct {
	T time.Duration // virtual time since experiment start
	V float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Min returns the minimum value (NaN when empty).
func (s *Series) Min() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	m := s.Points[0].V
	for _, p := range s.Points[1:] {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Max returns the maximum value (NaN when empty).
func (s *Series) Max() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	m := s.Points[0].V
	for _, p := range s.Points[1:] {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Mean returns the arithmetic mean (NaN when empty).
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// MinAfter returns the minimum value at or after t (NaN when no samples).
func (s *Series) MinAfter(t time.Duration) float64 {
	m := math.NaN()
	for _, p := range s.Points {
		if p.T >= t && (math.IsNaN(m) || p.V < m) {
			m = p.V
		}
	}
	return m
}

// MinBetween returns the minimum value in [from, to) (NaN when empty).
func (s *Series) MinBetween(from, to time.Duration) float64 {
	m := math.NaN()
	for _, p := range s.Points {
		if p.T >= from && p.T < to && (math.IsNaN(m) || p.V < m) {
			m = p.V
		}
	}
	return m
}

// Recorder collects series and scalar results for one experiment.
type Recorder struct {
	series  map[string]*Series
	scalars map[string]float64
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: make(map[string]*Series), scalars: make(map[string]float64)}
}

// Series returns (creating if needed) the named series.
func (r *Recorder) Series(name string) *Series {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
	}
	return s
}

// SetScalar records a named scalar result.
func (r *Recorder) SetScalar(name string, v float64) { r.scalars[name] = v }

// Scalar returns a named scalar result.
func (r *Recorder) Scalar(name string) float64 { return r.scalars[name] }

// ---- Rendering ----

// Table renders a fixed-width table.
func Table(title string, headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return b.String()
}

// SeriesTable renders one or more series sampled on their shared time
// axis, one row per timestamp — the textual form of a figure.
func SeriesTable(title string, series ...*Series) string {
	type key = time.Duration
	stamps := map[key]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			stamps[p.T] = true
		}
	}
	ts := make([]time.Duration, 0, len(stamps))
	for t := range stamps {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })

	headers := []string{"t(s)"}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	rows := make([][]string, 0, len(ts))
	for _, t := range ts {
		row := []string{fmt.Sprintf("%.0f", t.Seconds())}
		for _, s := range series {
			cell := ""
			for _, p := range s.Points {
				if p.T == t {
					cell = fmt.Sprintf("%.4f", p.V)
					break
				}
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return Table(title, headers, rows)
}
