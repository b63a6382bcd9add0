// Command idea-bench regenerates every table and figure of the paper's
// evaluation on the deterministic WAN emulator and prints them in the
// layout the paper uses. Run with -seed to vary the replayed universe.
//
//	go run ./cmd/idea-bench            # everything
//	go run ./cmd/idea-bench -only fig7a,table2
//
// It renders the figures only; performance is measured and gated by
// `go run ./benchmark` (README "Performance & CI gates").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"idea/internal/experiments"
)

// all lists every experiment by its -only key, in print order.
var all = []struct {
	key string
	run func(seed int64) experiments.Report
}{
	{"fig7a", experiments.RunFig7a},
	{"fig7b", experiments.RunFig7b},
	{"fig8", experiments.RunFig8},
	{"table2", experiments.RunTable2},
	{"fig9", experiments.RunFig9},
	{"fig10", experiments.RunFig10Table3},
	{"fig2", experiments.RunFig2Tradeoff},
	{"capture", func(seed int64) experiments.Report { return experiments.RunTopLayerCapture(seed, 0.05) }},
	{"rollback", experiments.RunRollback},
	{"bounds", experiments.RunBoundsLearning},
	{"parallel", experiments.RunParallelPhase2},
	{"ttl", experiments.RunTTLTradeoff},
	{"refsel", experiments.RunRefSelectors},
	{"skew", experiments.RunSkewSensitivity},
	{"workload", experiments.RunWorkloadSensitivity},
}

// runExperiments replays the selected experiments (empty = all) and
// renders them to w, returning how many ran.
func runExperiments(seed int64, only string, w io.Writer) int {
	want := map[string]bool{}
	if only != "" {
		for _, k := range strings.Split(only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}

	fmt.Fprintln(w, "IDEA evaluation reproduction (emulated PlanetLab, virtual time)")
	fmt.Fprintf(w, "seed %d\n", seed)
	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.key] {
			continue
		}
		fmt.Fprint(w, e.run(seed).Rendered)
		ran++
	}
	return ran
}

func main() {
	seed := flag.Int64("seed", 1, "deterministic seed for every experiment")
	keys := make([]string, len(all))
	for i, e := range all {
		keys[i] = e.key
	}
	only := flag.String("only", "", "comma-separated subset ("+strings.Join(keys, ",")+")")
	flag.Parse()

	if runExperiments(*seed, *only, os.Stdout) == 0 {
		fmt.Fprintln(os.Stderr, "no experiments matched -only")
		os.Exit(2)
	}
}
