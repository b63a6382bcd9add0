package experiments

import (
	"fmt"
	"time"

	"idea/internal/apps/booking"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
)

// AutoConfig parameterizes the §6.3 automatic booking experiments.
type AutoConfig struct {
	Seed int64
	Freq time.Duration // background resolution period (20 s / 40 s)
}

// AutoResult is one automatic run's outcome.
type AutoResult struct {
	Freq       time.Duration
	Rec        *Recorder
	Messages   int // resolution protocol messages (Table 3's overhead)
	AllTraffic int
	Rounds     int
	Oversold   int
}

const flightFile = id.FileID("flight")

// RunAutomatic executes one Fig. 10 configuration: booking servers
// committing updates, consistency maintained solely by background
// resolution at the given frequency.
func RunAutomatic(cfg AutoConfig) AutoResult {
	cl := NewCluster(ClusterConfig{Seed: cfg.Seed, File: flightFile})
	c, nodes, servers := cl.C, cl.Nodes, cl.Writers
	books := make(map[id.NodeID]*booking.Server, paperWriters)
	var bookList []*booking.Server
	for _, nid := range servers {
		s, err := booking.New(nodes[nid], flightFile, 1<<30, 100)
		if err != nil {
			panic(err)
		}
		// Booking casts its own metric; align the maxima with the
		// calibrated experiment-wide values again.
		num, ord, stale := CalibratedMaxima()
		if err := nodes[nid].SetConsistencyMetric(num, ord, stale, nil); err != nil {
			panic(err)
		}
		books[nid] = s
		bookList = append(bookList, s)
	}

	// Arm fixed-frequency background resolution on every server.
	for _, nid := range servers {
		nid := nid
		c.CallAtFile(0, nid, flightFile, func(e env.Env) {
			nodes[nid].SetMode(flightFile, core.FullyAutomatic)
			nodes[nid].SetBackgroundFreq(e, flightFile, cfg.Freq)
		})
	}
	cl.ScheduleWarmup()

	// A booking every writeInterval at every server.
	for t := writeInterval; t <= paperDuration; t += writeInterval {
		for _, nid := range servers {
			nid := nid
			c.CallAt(t, nid, func(e env.Env) { books[nid].Book(e, 1) })
		}
	}

	// Top-layer perceived consistency (the Fig. 10 series).
	rec := NewRecorder()
	for t := samplePeriod / 2; t <= paperDuration+samplePeriod; t += samplePeriod {
		c.RunUntil(t)
		_, avg := cl.SampleLevels()
		rec.Series("consistency level").Add(t, avg)
	}
	c.RunUntil(paperDuration + samplePeriod)

	msgs := c.Stats().TotalMatching("resolve.")
	rounds := 0
	for _, nid := range servers {
		rounds += nodes[nid].Resolver().Resolutions
	}
	rec.SetScalar("messages", float64(msgs))
	rec.SetScalar("rounds", float64(rounds))
	return AutoResult{
		Freq:       cfg.Freq,
		Rec:        rec,
		Messages:   msgs,
		AllTraffic: c.Stats().Total(),
		Rounds:     rounds,
		Oversold:   booking.GlobalSold(bookList),
	}
}

// RunFig10Table3 reproduces Fig. 10 and Table 3 together: the automatic
// booking system at 20 s and 40 s background frequencies, the consistency
// timelines, the message overhead, and the Formula 4/5 derivations of
// §6.3.2.
func RunFig10Table3(seed int64) Report {
	r20 := RunAutomatic(AutoConfig{Seed: seed, Freq: 20 * time.Second})
	r40 := RunAutomatic(AutoConfig{Seed: seed + 1, Freq: 40 * time.Second})

	rec := NewRecorder()
	s20 := rec.Series("freq 20 s")
	for _, p := range r20.Rec.Series("consistency level").Points {
		s20.Add(p.T, p.V)
	}
	s40 := rec.Series("freq 40 s")
	for _, p := range r40.Rec.Series("consistency level").Points {
		s40.Add(p.T, p.V)
	}
	rec.SetScalar("messages @20s", float64(r20.Messages))
	rec.SetScalar("messages @40s", float64(r40.Messages))
	rec.SetScalar("mean level @20s", s20.Mean())
	rec.SetScalar("mean level @40s", s40.Mean())

	// Formula 5: per-round message cost averaged over both runs.
	totalRounds := r20.Rounds + r40.Rounds
	perRound := 0.0
	if totalRounds > 0 {
		perRound = float64(r20.Messages+r40.Messages) / float64(totalRounds)
	}
	rec.SetScalar("msgs per round (formula 5)", perRound)

	// Formula 4 worked example: b = 1 Mbps available, x% = 20 %,
	// s = 1 KB per message (the paper's assumption).
	const (
		bandwidthBps = 1_000_000.0 / 8 // bytes/sec
		share        = 0.20
		msgSize      = 1024.0
	)
	roundCost := perRound * msgSize
	optimalRate := bandwidthBps * share / roundCost // rounds per second
	rec.SetScalar("optimal rate (rounds/s)", optimalRate)

	out := section("Fig 10: automatic booking system, consistency level vs background frequency") +
		SeriesTable("", s20, s40) +
		section("Table 3: overhead (resolution messages over the 100 s run)") +
		Table("", []string{"frequency", "overhead (# msgs)", "rounds", "mean level"}, [][]string{
			{"20 seconds", fmt.Sprintf("%d", r20.Messages), fmt.Sprintf("%d", r20.Rounds), fmt.Sprintf("%.4f", s20.Mean())},
			{"40 seconds", fmt.Sprintf("%d", r40.Messages), fmt.Sprintf("%d", r40.Rounds), fmt.Sprintf("%.4f", s40.Mean())},
		}) +
		fmt.Sprintf("\nFormula 5: one round ≈ %.1f messages (paper: 44)\n", perRound) +
		fmt.Sprintf("Formula 4 example (b=1 Mbps, x=20%%, s=1 KB): optimal rate ≈ %.3f rounds/s (period %.1f s)\n",
			optimalRate, 1/optimalRate)
	return Report{Name: "Fig10+Table3", Rec: rec, Rendered: out}
}
