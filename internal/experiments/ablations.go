package experiments

import (
	"fmt"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/gossip"
	"idea/internal/id"
	"idea/internal/quantify"
)

// RunParallelPhase2 quantifies the §6.2 suggestion that phase 2 can be
// parallelized: sequential phase-2 delay grows linearly with the top
// layer while the parallel variant stays near one round trip.
func RunParallelPhase2(seed int64) Report {
	rec := NewRecorder()
	seq := rec.Series("sequential (ms)")
	par := rec.Series("parallel (ms)")
	rows := make([][]string, 0, 5)
	for _, n := range []int{2, 4, 6, 8, 10} {
		s := RunPhaseBreakdown(PhaseConfig{Seed: seed + int64(n), Writers: n})
		p := RunPhaseBreakdown(PhaseConfig{Seed: seed + int64(n), Writers: n, Parallel: true})
		t := time.Duration(n) * time.Second
		seq.Add(t, float64(s.Phase2)/1e6)
		par.Add(t, float64(p.Phase2)/1e6)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n), fmtDur(s.Phase2), fmtDur(p.Phase2),
		})
	}
	rec.SetScalar("sequential @10 ms", seq.Points[len(seq.Points)-1].V)
	rec.SetScalar("parallel @10 ms", par.Points[len(par.Points)-1].V)
	out := section("Ablation: sequential vs parallel phase 2 (§6.2 optimization)") +
		Table("", []string{"top-layer n", "sequential phase 2", "parallel phase 2"}, rows) +
		"\nsequential grows linearly (simplicity); parallel stays ≈1 RTT (scalability)\n"
	return Report{Name: "ParallelPhase2", Rec: rec, Rendered: out}
}

// RunTTLTradeoff measures the §4.4.2 accuracy/responsiveness trade-off of
// TTL-bounding the bottom-layer sweep: higher TTL finds bottom-only
// conflicts sooner and more reliably, at higher gossip traffic.
func RunTTLTradeoff(seed int64) Report {
	rec := NewRecorder()
	rows := make([][]string, 0, 4)
	for _, ttl := range []int{1, 2, 4, 6} {
		cl := NewCluster(ClusterConfig{
			Seed:    seed + int64(ttl),
			Nodes:   30,
			Writers: 2,
			Gossip:  true,
			Mutate: func(_ id.NodeID, o *core.Options) {
				o.Gossip = gossip.Config{Interval: 5 * time.Second, Fanout: 2, TTL: ttl}
			},
		})
		cl.Warmup()
		// A stray bottom-layer conflict.
		stray := cl.All[len(cl.All)-1]
		cl.C.CallAtFile(time.Second, stray, SharedFile, func(e env.Env) {
			cl.Nodes[stray].Store().Open(SharedFile).WriteLocal(e.Stamp(), "stray", nil, 7)
		})
		// Run until some writer hears a gossip report (or 120 s).
		found := time.Duration(0)
		for t := 5 * time.Second; t <= 120*time.Second; t += 5 * time.Second {
			cl.C.RunUntil(t)
			heard := 0
			for _, w := range cl.Writers {
				heard += cl.Nodes[w].AlertsTotal()
			}
			reports := cl.C.Stats().Count("gossip.report")
			if (heard > 0 || reports > 0) && found == 0 {
				found = t
			}
		}
		digests := cl.C.Stats().Count("gossip.digest")
		detected := "no"
		delay := "-"
		if found > 0 {
			detected = "yes"
			delay = fmt.Sprintf("%.0f s", found.Seconds())
		}
		rec.SetScalar(fmt.Sprintf("ttl%d digests", ttl), float64(digests))
		if found > 0 {
			rec.SetScalar(fmt.Sprintf("ttl%d delay s", ttl), found.Seconds())
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", ttl), detected, delay, fmt.Sprintf("%d", digests),
		})
	}
	out := section("Ablation: bottom-layer TTL — accuracy vs responsiveness vs cost (§4.4.2)") +
		Table("", []string{"TTL", "bottom conflict found", "detection delay", "gossip digests"}, rows)
	return Report{Name: "TTL", Rec: rec, Rendered: out}
}

// RunRefSelectors compares the reference-consistent-state choices §4.4.1
// sketches: highest-ID (the paper's), most-updates, and merged-dominating.
func RunRefSelectors(seed int64) Report {
	rec := NewRecorder()
	rows := make([][]string, 0, 3)
	for _, sel := range []struct {
		name string
		fn   quantify.RefSelector
	}{
		{"highest-id (paper)", quantify.HighestIDRef},
		{"most-updates", quantify.MostUpdatesRef},
		{"merged", quantify.MergedRef},
	} {
		cl := NewCluster(ClusterConfig{Seed: seed, Nodes: 8, Writers: 4})
		cl.Quant.RefSel = sel.fn
		for _, w := range cl.Writers {
			cl.Nodes[w].Quantifier().RefSel = sel.fn
		}
		cl.Warmup()
		cl.ScheduleUniformWrites(5*time.Second, 50*time.Second)
		rec2 := NewRecorder()
		cl.RunSampling(rec2, "worst", "avg", 5*time.Second, 55*time.Second)
		rows = append(rows, []string{
			sel.name,
			fmt.Sprintf("%.4f", rec2.Series("worst").Min()),
			fmt.Sprintf("%.4f", rec2.Series("avg").Mean()),
		})
		rec.SetScalar(sel.name+" worst", rec2.Series("worst").Min())
	}
	out := section("Ablation: reference consistent state selection (§4.4.1)") +
		Table("", []string{"selector", "lowest level", "mean level"}, rows) +
		"\nmerged references judge every replica behind (no free winner); highest-id matches the paper\n"
	return Report{Name: "RefSel", Rec: rec, Rendered: out}
}

// RunSkewSensitivity checks the NTP assumption (§4.4.1): staleness errors
// absorb clock skew, so levels drift only once skew approaches the
// staleness maximum.
func RunSkewSensitivity(seed int64) Report {
	rec := NewRecorder()
	rows := make([][]string, 0, 4)
	for _, skew := range []time.Duration{0, time.Second, 5 * time.Second, 20 * time.Second} {
		cl := NewCluster(ClusterConfig{Seed: seed, Nodes: 8, Writers: 4, MaxSkew: skew})
		cl.Warmup()
		cl.ScheduleUniformWrites(5*time.Second, 50*time.Second)
		rec2 := NewRecorder()
		cl.RunSampling(rec2, "worst", "avg", 5*time.Second, 55*time.Second)
		rows = append(rows, []string{
			skew.String(),
			fmt.Sprintf("%.4f", rec2.Series("worst").Min()),
			fmt.Sprintf("%.4f", rec2.Series("avg").Mean()),
		})
		rec.SetScalar(fmt.Sprintf("skew %v worst", skew), rec2.Series("worst").Min())
	}
	out := section("Ablation: clock-skew sensitivity (NTP assumption, §4.4.1)") +
		Table("", []string{"max skew", "lowest level", "mean level"}, rows) +
		"\nlevels stay stable while skew ≪ staleness maximum — the paper's 'within seconds' bound suffices\n"
	return Report{Name: "Skew", Rec: rec, Rendered: out}
}
