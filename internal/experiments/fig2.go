package experiments

import (
	"fmt"
	"time"

	"idea/internal/baseline"
	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/quantify"
	"idea/internal/simnet"
	"idea/internal/vv"
)

// TradeoffResult is one system's row in the Fig. 2 comparison.
type TradeoffResult struct {
	System string
	// DetectDelay is how long a conflicting update stays unnoticed
	// (IDEA: detect() elapsed; optimistic: anti-entropy notice age;
	// strong: 0 — conflicts cannot form).
	DetectDelay time.Duration
	// Messages is total protocol traffic for the identical workload.
	Messages int
	Bytes    int
	// MeanLevel is the omnisciently sampled average consistency level.
	MeanLevel float64
	// WriteLatency is the application-visible write cost (strong pays
	// a synchronous round; the others commit locally).
	WriteLatency time.Duration
}

const tradeoffRounds = 20
const tradeoffInterval = 5 * time.Second

// RunFig2Tradeoff runs the identical four-writer workload under IDEA,
// optimistic consistency, and strong consistency, and reports the
// overhead-vs-consistency positioning the paper sketches in Fig. 2:
// IDEA detects nearly as fast as strong consistency enforces, at a small
// multiple of optimistic cost and far below strong-consistency cost.
func RunFig2Tradeoff(seed int64) Report {
	idea := runIdeaArm(seed)
	opt := runOptimisticArm(seed + 1)
	strong := runStrongArm(seed + 2)

	rec := NewRecorder()
	rows := make([][]string, 0, 3)
	for _, r := range []TradeoffResult{opt, idea, strong} {
		rec.SetScalar(r.System+" messages", float64(r.Messages))
		rec.SetScalar(r.System+" detect ms", float64(r.DetectDelay)/1e6)
		rec.SetScalar(r.System+" mean level", r.MeanLevel)
		rows = append(rows, []string{
			r.System,
			fmtDur(r.DetectDelay),
			fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%d", r.Bytes),
			fmt.Sprintf("%.4f", r.MeanLevel),
			fmtDur(r.WriteLatency),
		})
	}
	out := section("Fig 2 (measured): consistency guarantee vs overhead across control schemes") +
		Table("", []string{"system", "detection delay", "messages", "bytes", "mean level", "write latency"}, rows) +
		"\nexpected ordering: optimistic < IDEA < strong on overhead; strong < IDEA < optimistic on detection delay\n"
	return Report{Name: "Fig2", Rec: rec, Rendered: out}
}

func runIdeaArm(seed int64) TradeoffResult {
	cl := NewCluster(ClusterConfig{Seed: seed, Nodes: 8, Writers: 4})
	cl.HintAt(0, 0.95)
	cl.Warmup()
	var delays []time.Duration
	for _, w := range cl.Writers {
		w := w
		cl.Nodes[w].SetOnLevel(func(_ env.Env, f id.FileID, res detect.Result) {
			if f == SharedFile && !res.OK {
				delays = append(delays, res.Elapsed)
			}
		})
	}
	cl.ScheduleUniformWrites(tradeoffInterval, tradeoffRounds*tradeoffInterval)
	rec := NewRecorder()
	cl.RunSampling(rec, "worst", "avg", tradeoffInterval, tradeoffRounds*tradeoffInterval+tradeoffInterval)
	return TradeoffResult{
		System:      "IDEA (hint 95%)",
		DetectDelay: meanDur(delays),
		Messages:    cl.C.Stats().Total(),
		Bytes:       cl.C.Stats().Bytes(),
		MeanLevel:   rec.Series("avg").Mean(),
	}
}

func runOptimisticArm(seed int64) TradeoffResult {
	ids := []id.NodeID{1, 2, 3, 4}
	c := simnet.New(simnet.Config{Seed: seed, Latency: simnet.WAN{}})
	nodes := make(map[id.NodeID]*baseline.Optimistic)
	var noticeAges []time.Duration
	for _, nid := range ids {
		var peers []id.NodeID
		for _, p := range ids {
			if p != nid {
				peers = append(peers, p)
			}
		}
		o := baseline.NewOptimistic(baseline.OptimisticConfig{Interval: 30 * time.Second}, nid, peers)
		o.OnConflict = func(_ env.Env, n baseline.ConflictNotice) {
			noticeAges = append(noticeAges, n.Since)
		}
		nodes[nid] = o
		c.Add(nid, o)
	}
	c.Start()
	for r := 1; r <= tradeoffRounds; r++ {
		at := time.Duration(r) * tradeoffInterval
		for _, nid := range ids {
			nid := nid
			c.CallAtFile(at, nid, SharedFile, func(e env.Env) {
				nodes[nid].Write(e, SharedFile, "draw", []byte("op"), 0)
			})
		}
	}
	// Sample levels with the calibrated quantifier.
	num, ord, stale := CalibratedMaxima()
	quant := quantify.New(quantify.Maxima{Numerical: num, Order: ord, Staleness: stale}, quantify.EqualWeights())
	levels := 0.0
	samples := 0
	for t := tradeoffInterval / 2; t <= tradeoffRounds*tradeoffInterval+tradeoffInterval; t += tradeoffInterval {
		c.RunUntil(t)
		cands := make(map[id.NodeID]*vv.Vector, len(ids))
		for _, nid := range ids {
			cands[nid] = nodes[nid].Store().Open(SharedFile).Vector()
		}
		_, ref := quant.RefSel(cands)
		for _, nid := range ids {
			_, l := quant.Score(cands[nid], ref)
			levels += l
			samples++
		}
	}
	return TradeoffResult{
		System:      "optimistic (AE 30s)",
		DetectDelay: meanDur(noticeAges),
		Messages:    c.Stats().Total(),
		Bytes:       c.Stats().Bytes(),
		MeanLevel:   levels / float64(samples),
	}
}

func runStrongArm(seed int64) TradeoffResult {
	ids := []id.NodeID{1, 2, 3, 4}
	c := simnet.New(simnet.Config{Seed: seed, Latency: simnet.WAN{}})
	nodes := make(map[id.NodeID]*baseline.Strong)
	var commitLatencies []time.Duration
	for _, nid := range ids {
		s := baseline.NewStrong(baseline.StrongConfig{Replicas: ids}, nid)
		s.OnCommit = func(_ env.Env, n baseline.CommitNotice) {
			commitLatencies = append(commitLatencies, n.Latency)
		}
		nodes[nid] = s
		c.Add(nid, s)
	}
	c.Start()
	for r := 1; r <= tradeoffRounds; r++ {
		at := time.Duration(r) * tradeoffInterval
		for _, nid := range ids {
			nid := nid
			c.CallAtFile(at, nid, SharedFile, func(e env.Env) {
				nodes[nid].Write(e, SharedFile, "draw", []byte("op"), 0)
			})
		}
	}
	c.RunFor(tradeoffRounds*tradeoffInterval + 10*time.Second)
	return TradeoffResult{
		System:       "strong (primary copy)",
		DetectDelay:  0, // conflicts cannot form
		Messages:     c.Stats().Total(),
		Bytes:        c.Stats().Bytes(),
		MeanLevel:    1,
		WriteLatency: meanDur(commitLatencies),
	}
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
