package experiments

import (
	"fmt"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/gossip"
	"idea/internal/id"
)

// RunTopLayerCapture quantifies the §4.3 claim that the top layer catches
// the vast majority of inconsistencies ("more than 95% in a variety of
// scenarios"): conflicting writes are issued mostly by top-layer writers
// and occasionally by a bottom-layer node; capture rate is the fraction
// of conflicting writes whose conflict is visible to top-layer detection
// (writer in the top layer) versus only discoverable by the gossip sweep.
func RunTopLayerCapture(seed int64, bottomShare float64) Report {
	if bottomShare == 0 {
		bottomShare = 0.05
	}
	cl := NewCluster(ClusterConfig{
		Seed:    seed,
		Nodes:   40,
		Writers: 4,
		Gossip:  true,
		Mutate: func(_ id.NodeID, o *core.Options) {
			o.Gossip = gossip.Config{Interval: 5 * time.Second, Fanout: 3, TTL: 4}
		},
	})
	cl.Warmup()

	bottomWriter := cl.All[len(cl.All)-1]
	topWrites, bottomWrites := 0, 0
	end := 200 * time.Second
	for t := 5 * time.Second; t <= end; t += 5 * time.Second {
		for _, w := range cl.Writers {
			cl.WriteAt(t, w)
			topWrites++
		}
		// A bottom-layer node occasionally writes the same file
		// directly against its own replica (it is not in the top
		// layer, so detection cannot see it).
		if float64(int(t/(5*time.Second)))*bottomShare >= float64(bottomWrites+1) {
			bw := bottomWriter
			cl.C.CallAtFile(t, bw, SharedFile, func(e env.Env) {
				cl.Nodes[bw].Store().Open(SharedFile).WriteLocal(e.Stamp(), "stray", nil, 0)
			})
			bottomWrites++
		}
	}
	cl.C.RunFor(end + 30*time.Second)

	total := topWrites + bottomWrites
	capture := float64(topWrites) / float64(total)
	gossipReports := cl.C.Stats().Count("gossip.report")
	alerts := 0
	for _, nd := range cl.Nodes {
		alerts += nd.AlertsTotal()
	}

	rec := NewRecorder()
	rec.SetScalar("capture rate", capture)
	rec.SetScalar("bottom-only writes", float64(bottomWrites))
	rec.SetScalar("gossip reports", float64(gossipReports))
	rec.SetScalar("alerts", float64(alerts))
	out := section("Top-layer capture (§4.3 claim: >95%)") +
		Table("", []string{"metric", "value"}, [][]string{
			{"conflicting writes (top layer)", fmt.Sprintf("%d", topWrites)},
			{"conflicting writes (bottom only)", fmt.Sprintf("%d", bottomWrites)},
			{"capture rate", fmt.Sprintf("%.2f%%", capture*100)},
			{"gossip reports (bottom sweep)", fmt.Sprintf("%d", gossipReports)},
			{"discrepancy alerts raised", fmt.Sprintf("%d", alerts)},
		})
	return Report{Name: "Capture", Rec: rec, Rendered: out}
}

// RunRollback measures the §4.4.2 rollback path: a bottom-layer-only
// conflict is planted, the top layer returns a clean verdict, the user
// keeps working, and the gossip sweep later contradicts the verdict.
// Reported: discrepancy detection delay and rolled-back operations.
func RunRollback(seed int64) Report {
	cl := NewCluster(ClusterConfig{
		Seed:    seed,
		Nodes:   12,
		Writers: 2,
		Gossip:  true,
		Mutate: func(_ id.NodeID, o *core.Options) {
			o.Gossip = gossip.Config{Interval: 5 * time.Second, Fanout: 3, TTL: 4}
		},
	})
	cl.HintAt(0, 0.9)
	cl.Warmup()

	// The stray bottom-layer conflict.
	stray := cl.All[len(cl.All)-1]
	cl.C.CallAtFile(time.Second, stray, SharedFile, func(e env.Env) {
		r := cl.Nodes[stray].Store().Open(SharedFile)
		for i := 0; i < 10; i++ {
			r.WriteLocal(e.Stamp(), "stray", nil, float64(i))
		}
	})

	// Writer 1 writes, gets a clean top-layer verdict at ~t0, and keeps
	// working on the validated snapshot.
	var verdictAt time.Duration
	w1 := cl.Writers[0]
	cl.C.CallAtFile(2*time.Second, w1, SharedFile, func(e env.Env) {
		u := cl.Nodes[w1].Write(e, SharedFile, "draw", nil, 0)
		for _, w := range cl.Writers[1:] {
			cl.Nodes[w].Store().Open(SharedFile).Apply(u)
		}
	})
	cl.C.CallAtFile(3*time.Second, w1, SharedFile, func(e env.Env) {
		verdictAt = 3 * time.Second
		r := cl.Nodes[w1].Store().Open(SharedFile)
		r.WriteLocal(e.Stamp(), "draft", nil, 1)
		r.WriteLocal(e.Stamp(), "draft", nil, 2)
	})

	var alert *core.Alert
	var alertAt time.Duration
	cl.Nodes[w1].SetOnAlert(func(_ env.Env, a core.Alert) {
		if alert == nil && a.RolledBack {
			ac := a
			alert = &ac
			alertAt = cl.C.Elapsed()
		}
	})
	cl.C.RunFor(120 * time.Second)

	rec := NewRecorder()
	rows := [][]string{}
	if alert != nil {
		delay := alertAt - verdictAt
		rec.SetScalar("rollback delay s", delay.Seconds())
		rec.SetScalar("undone ops", float64(alert.Undone))
		rows = append(rows,
			[]string{"discrepancy delay (TTL-bounded sweep)", fmt.Sprintf("%.1f s", delay.Seconds())},
			[]string{"operations rolled back", fmt.Sprintf("%d", alert.Undone)},
			[]string{"top-layer verdict", fmt.Sprintf("%.4f", alert.Top)},
			[]string{"bottom-layer verdict", fmt.Sprintf("%.4f", alert.Bottom)},
		)
	} else {
		rows = append(rows, []string{"rollback", "NOT TRIGGERED"})
	}
	out := section("Rollback on top/bottom discrepancy (§4.4.2)") +
		Table("", []string{"metric", "value"}, rows)
	return Report{Name: "Rollback", Rec: rec, Rendered: out}
}

// RunBoundsLearning exercises the §5.2 frequency-bounds learning: the
// automatic controller starts from Formula 4's optimum, business feedback
// reports oversells (period too long) and undersells (period too short),
// and the controller converges into the learned window.
func RunBoundsLearning(seed int64) Report {
	cl := NewCluster(ClusterConfig{Seed: seed, Nodes: 8, Writers: 4})
	w1 := cl.Writers[0]
	ctl := &core.AutoController{
		CapacityBps:    125_000, // 1 Mbps
		MaxShare:       0.2,
		RoundCostBytes: 44 * 1024, // the paper's c = 44·s with s = 1 KB
		MinPeriod:      time.Second,
	}
	cl.C.CallAtFile(0, w1, SharedFile, func(e env.Env) {
		cl.Nodes[w1].EnableAutomatic(e, SharedFile, ctl, 10*time.Second)
	})
	cl.C.RunFor(time.Second)
	initial := cl.Nodes[w1].BackgroundFreq(SharedFile)

	rec := NewRecorder()
	series := rec.Series("background period (s)")
	series.Add(cl.C.Elapsed(), initial.Seconds())

	// Feedback schedule: two oversells tighten the ceiling, then an
	// undersell raises the floor.
	cl.C.CallAtFile(20*time.Second, w1, SharedFile, func(e env.Env) { cl.Nodes[w1].ReportOversell(e, SharedFile) })
	cl.C.CallAtFile(40*time.Second, w1, SharedFile, func(e env.Env) { cl.Nodes[w1].ReportOversell(e, SharedFile) })
	cl.C.CallAtFile(60*time.Second, w1, SharedFile, func(e env.Env) { cl.Nodes[w1].ReportUndersell(e, SharedFile) })
	for t := 25 * time.Second; t <= 80*time.Second; t += 20 * time.Second {
		cl.C.RunUntil(t)
		series.Add(t, cl.Nodes[w1].BackgroundFreq(SharedFile).Seconds())
	}
	cl.C.RunFor(10 * time.Second)

	lo, hi := ctl.LearnedBounds()
	final := cl.Nodes[w1].BackgroundFreq(SharedFile)
	rec.SetScalar("initial period s", initial.Seconds())
	rec.SetScalar("final period s", final.Seconds())
	rec.SetScalar("learned lo s", lo.Seconds())
	rec.SetScalar("learned hi s", hi.Seconds())

	out := section("Frequency bounds learning (§5.2)") +
		Table("", []string{"metric", "value"}, [][]string{
			{"initial period (Formula 4)", fmt.Sprintf("%.2f s", initial.Seconds())},
			{"after 2 oversells + 1 undersell", fmt.Sprintf("%.2f s", final.Seconds())},
			{"learned floor (undersell)", fmt.Sprintf("%.2f s", lo.Seconds())},
			{"learned ceiling (oversell)", fmt.Sprintf("%.2f s", hi.Seconds())},
		})
	return Report{Name: "Bounds", Rec: rec, Rendered: out}
}
