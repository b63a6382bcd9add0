package main

import (
	"strings"
	"testing"
)

// TestExperimentsSmoke runs one real experiment end-to-end on the
// emulated cluster through the same code path the binary uses — the
// command was previously never exercised by any test.
func TestExperimentsSmoke(t *testing.T) {
	var buf strings.Builder
	if ran := runExperiments(1, "table2", &buf); ran != 1 {
		t.Fatalf("ran %d experiments, want 1", ran)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("table2 output missing its header:\n%s", out)
	}
}

func TestExperimentsUnknownKey(t *testing.T) {
	var buf strings.Builder
	if ran := runExperiments(1, "no-such-exp", &buf); ran != 0 {
		t.Fatalf("ran %d experiments for an unknown key, want 0", ran)
	}
}

// render runs the experiments selected by only at seed 1.
func render(t *testing.T, only string, want int) string {
	t.Helper()
	var buf strings.Builder
	if ran := runExperiments(1, only, &buf); ran != want {
		t.Fatalf("-only %q ran %d experiments, want %d", only, ran, want)
	}
	return buf.String()
}

// Every -only key renders its own report, and the same seed renders the
// same bytes: `idea-bench -seed 1 | sha256sum` is the "schedules unchanged"
// check, so it has to hold experiment by experiment.
func TestEveryKeyRendersItsReport(t *testing.T) {
	titles := map[string]string{
		"fig7a":    "Consistency level over time (hint 95%",
		"fig7b":    "Consistency level over time (hint 85%",
		"fig8":     "Consistency level over time (hint 95%",
		"table2":   "Table 2: delay breakdown",
		"fig9":     "Fig 9: scalability of active resolution",
		"fig10":    "Table 3: overhead",
		"fig2":     "Fig 2 (measured)",
		"capture":  "Top-layer capture",
		"rollback": "Rollback on top/bottom discrepancy",
		"bounds":   "Frequency bounds learning",
		"parallel": "Ablation: sequential vs parallel phase 2",
		"ttl":      "Ablation: bottom-layer TTL",
		"refsel":   "Ablation: reference consistent state selection",
		"skew":     "Ablation: clock-skew sensitivity",
		"workload": "Ablation: workload sensitivity",
	}
	if len(titles) != len(all) {
		t.Fatalf("%d titles for %d experiments: a key was added or removed without its title", len(titles), len(all))
	}
	for _, e := range all {
		t.Run(e.key, func(t *testing.T) {
			title, ok := titles[e.key]
			if !ok {
				t.Fatalf("no title for key %q", e.key)
			}
			first := render(t, e.key, 1)
			if !strings.Contains(first, title) {
				t.Fatalf("-only %s output lacks %q:\n%s", e.key, title, first)
			}
			if again := render(t, e.key, 1); again != first {
				t.Fatalf("-only %s at seed 1 rendered different bytes on a second run", e.key)
			}
		})
	}
}

// Without -only the command prints every report once, in list order.
func TestAllIsEveryKeyInOrder(t *testing.T) {
	const preamble = "IDEA evaluation reproduction (emulated PlanetLab, virtual time)\nseed 1\n"
	want := preamble
	for _, e := range all {
		want += strings.TrimPrefix(render(t, e.key, 1), preamble)
	}
	if got := render(t, "", len(all)); got != want {
		t.Fatal("the full run is not the per-key reports concatenated in list order")
	}
}
