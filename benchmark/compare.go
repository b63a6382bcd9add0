package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// printTable prints one run's metrics by name with unit and sample count.
func printTable(w io.Writer, r *runResult) {
	kind := "end-to-end (untraced pass)"
	if r.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %gs  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	for _, m := range r.Metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-32s %14s %-8s n=%d%s\n", m.Name, fmtFloat(m.Value), m.Unit, m.N, note)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  failed_share %s\n", r.Attempted, r.Failed, fmtFloat(ratio(float64(r.Failed), float64(r.Attempted))))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.SimReproduced != nil {
		fmt.Fprintf(w, "  interposed pass reproduced the un-interposed Events()/Stats: %v\n", *r.SimReproduced)
	}
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

type seriesKey struct{ workload, metric string }

func series(f *resultFile) map[seriesKey][]float64 {
	out := make(map[seriesKey][]float64)
	for _, r := range f.Runs {
		for _, m := range r.Metrics {
			k := seriesKey{r.Workload, m.Name}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// verdict classifies b against a for one metric: "worse" when b's median is
// worse than a's by more than the bound, "unresolved" when either side's
// run-to-run spread is wider than the bound (so the medians cannot settle
// it), "ok" otherwise. Metrics without a bound (per-layer) are never gated.
func verdict(cm contractMetric, a, b []float64) (medA, medB, delta, spreadA, spreadB float64, mark string) {
	medA, spreadA = spread(a)
	medB, spreadB = spread(b)
	delta = ratio(medB-medA, medA)
	if cm.Bound == 0 {
		return medA, medB, delta, spreadA, spreadB, "-"
	}
	worse := delta
	if cm.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > cm.Bound:
		mark = "worse"
	case spreadA > cm.Bound || spreadB > cm.Bound:
		mark = "unresolved"
	default:
		mark = "ok"
	}
	return medA, medB, delta, spreadA, spreadB, mark
}

// compareFiles prints, per workload and metric, both medians, the relative
// delta, both spreads and the metric's bound, and marks each gated row. It
// returns an error when any row is worse.
func compareFiles(w io.Writer, c *contract, pathA, pathB string) error {
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	sa, sb := series(fa), series(fb)
	var keys []seriesKey
	for k := range sa {
		if _, ok := sb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-16s %-32s %14s %14s %9s %9s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "delta", "spread a", "spread b", "bound", "")
	worse := 0
	for _, k := range keys {
		cm, _ := c.lookup(k.metric)
		medA, medB, delta, spA, spB, mark := verdict(cm, sa[k], sb[k])
		if mark == "worse" {
			worse++
		}
		fmt.Fprintf(w, "%-16s %-32s %14s %14s %+8.2f%% %8.2f%% %8.2f%% %6.0f%%  %s\n",
			k.workload, k.metric, fmtFloat(medA), fmtFloat(medB), delta*100, spA*100, spB*100, cm.Bound*100, mark)
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse than their bound", worse)
	}
	return nil
}
