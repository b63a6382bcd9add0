package experiments

import (
	"fmt"
	"time"

	"idea/internal/id"
)

// HintConfig parameterizes the §6.1 adaptive-interface experiments.
type HintConfig struct {
	Seed     int64
	Hint     float64       // hint level, e.g. 0.95 for Fig. 7(a)
	Duration time.Duration // default 100 s
	// ResetHint, when non-zero, changes the hint to ResetHintTo at
	// Duration/2 (the Fig. 8 combined run).
	ResetHintTo float64
	ResetAt     time.Duration
}

func (c HintConfig) withDefaults() HintConfig {
	if c.Duration == 0 {
		c.Duration = paperDuration
	}
	return c
}

// RunHint executes the hint-based white-board experiment: the paper's 4
// concurrent writers among 40 nodes update the shared file every 5 s;
// IDEA triggers active resolution whenever a writer's detected level
// drops below the hint. The recorder carries the "view from the user" (worst writer) and
// "system average" series of Fig. 7.
func RunHint(cfg HintConfig) Report {
	cfg = cfg.withDefaults()
	cl := NewCluster(ClusterConfig{Seed: cfg.Seed})
	cl.HintAt(0, cfg.Hint)
	cl.Warmup()
	if cfg.ResetHintTo > 0 {
		at := cfg.ResetAt
		if at == 0 {
			at = cfg.Duration / 2
		}
		cl.HintAt(at, cfg.ResetHintTo)
	}
	cl.ScheduleUniformWrites(writeInterval, cfg.Duration)

	rec := NewRecorder()
	cl.RunSampling(rec, "view from the user", "system average", samplePeriod, cfg.Duration+samplePeriod)

	resolutions := 0
	for _, w := range cl.Writers {
		resolutions += cl.Nodes[w].Resolver().Resolutions
	}
	worst := rec.Series("view from the user")
	rec.SetScalar("lowest user level", worst.Min())
	rec.SetScalar("mean user level", worst.Mean())
	rec.SetScalar("resolutions", float64(resolutions))
	rec.SetScalar("messages", float64(cl.C.Stats().Total()))
	if cfg.ResetHintTo > 0 {
		at := cfg.ResetAt
		if at == 0 {
			at = cfg.Duration / 2
		}
		rec.SetScalar("lowest level before reset", worst.MinBetween(0, at))
		rec.SetScalar("lowest level after reset", worst.MinAfter(at))
	}

	name := fmt.Sprintf("hint %.0f%%", cfg.Hint*100)
	title := fmt.Sprintf("Consistency level over time (hint %.0f%%, %d writers / %d nodes, write every %v)",
		cfg.Hint*100, paperWriters, paperNodes, writeInterval)
	out := section(title) +
		SeriesTable("", rec.Series("view from the user"), rec.Series("system average")) +
		fmt.Sprintf("\nlowest user-perceived level: %.4f   active resolutions: %d\n",
			worst.Min(), resolutions)
	return Report{Name: name, Rec: rec, Rendered: out}
}

// RunFig7a reproduces Fig. 7(a): hint level 95 %.
func RunFig7a(seed int64) Report {
	r := RunHint(HintConfig{Seed: seed, Hint: 0.95})
	r.Name = "Fig7a"
	return r
}

// RunFig7b reproduces Fig. 7(b): hint level 85 %.
func RunFig7b(seed int64) Report {
	r := RunHint(HintConfig{Seed: seed, Hint: 0.85})
	r.Name = "Fig7b"
	return r
}

// RunFig8 reproduces Fig. 8: a 200-second run with the hint reset from
// 95 % to 90 % at t = 100 s.
func RunFig8(seed int64) Report {
	r := RunHint(HintConfig{
		Seed:        seed,
		Hint:        0.95,
		Duration:    200 * time.Second,
		ResetHintTo: 0.90,
		ResetAt:     100 * time.Second,
	})
	r.Name = "Fig8"
	return r
}

// observerID is unused but kept for interface stability of future
// multi-observer variants.
var _ = id.Nil
