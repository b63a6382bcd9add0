// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simnet PlanetLab substitute, plus the ablations
// DESIGN.md calls out. Each experiment is a pure function of its
// parameters and seed, returning a Report with the series/rows the paper
// plots and the scalar headline numbers.
//
// Calibration notes (see DESIGN.md §4 and EXPERIMENTS.md):
//   - the WAN latency model is set so one sequential collect visit costs
//     ≈105 ms, matching Table 2's per-member cost;
//   - the consistency metric is cast with maxima (30, 66, 300) and equal
//     weights so one 5-second round of four-writer conflicts costs
//     ≈1.5 % of the level, reproducing Fig. 7's floors just below the
//     hint (94 %/84 %).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/quantify"
	"idea/internal/simnet"
	"idea/internal/vv"
)

// SharedFile is the file all paper experiments contend on.
const SharedFile = id.FileID("whiteboard")

// Report is one experiment's output.
type Report struct {
	Name     string
	Rec      *Recorder
	Rendered string // the table/figure text the harness prints
}

// ClusterConfig shapes a paper-style cluster.
type ClusterConfig struct {
	Seed    int64
	Nodes   int // total nodes (paper: 40)
	Writers int // concurrent writers forming the top layer (paper: 4)
	Latency simnet.LatencyModel
	// Gossip enables the bottom-layer sweep (the paper's evaluation ran
	// without the rollback path; default off to match).
	Gossip bool
	// Mutate tweaks per-node options before construction.
	Mutate func(nid id.NodeID, o *core.Options)
}

// Cluster is a ready-to-drive paper cluster.
type Cluster struct {
	C       *simnet.Cluster
	Nodes   map[id.NodeID]*core.Node
	All     []id.NodeID
	Writers []id.NodeID
	Quant   *quantify.Quantifier
}

// CalibratedMaxima are the experiment-wide Formula 1 maxima.
func CalibratedMaxima() (num, ord, stale float64) { return 30, 66, 300 }

// NewCluster builds the paper topology: cfg.Nodes nodes spanning a WAN,
// with the first cfg.Writers node IDs pinned as the shared file's top
// layer (the "after warming up, the four writers form a top layer"
// configuration of §6.1).
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes == 0 {
		cfg.Nodes = 40
	}
	if cfg.Writers == 0 {
		cfg.Writers = 4
	}
	if cfg.Latency == nil {
		cfg.Latency = simnet.WAN{}
	}
	all := make([]id.NodeID, cfg.Nodes)
	for i := range all {
		all[i] = id.NodeID(i + 1)
	}
	writers := all[:cfg.Writers]
	mem := overlay.NewStatic(all, map[id.FileID][]id.NodeID{SharedFile: writers})
	c := simnet.New(simnet.Config{Seed: cfg.Seed, Latency: cfg.Latency})
	nodes := make(map[id.NodeID]*core.Node, cfg.Nodes)
	var quant *quantify.Quantifier
	for _, nid := range all {
		opts := core.Options{
			Membership:    mem,
			All:           all,
			DisableGossip: !cfg.Gossip,
			DisableRansub: true,
		}
		if cfg.Mutate != nil {
			cfg.Mutate(nid, &opts)
		}
		nd := core.NewNode(nid, opts)
		num, ord, stale := CalibratedMaxima()
		if err := nd.SetConsistencyMetric(num, ord, stale, nil); err != nil {
			panic(err)
		}
		nodes[nid] = nd
		if quant == nil {
			quant = nd.Quantifier()
		}
		c.Add(nid, nd)
	}
	c.Start()
	return &Cluster{C: c, Nodes: nodes, All: all, Writers: append([]id.NodeID(nil), writers...), Quant: quant}
}

// Warmup gives every writer a shared first update so the replicas have a
// common consistent prefix (staleness then measures divergence age, not
// time since the epoch).
func (cl *Cluster) Warmup() {
	w0 := cl.Writers[0]
	cl.C.CallAtFile(100*time.Millisecond, w0, SharedFile, func(e env.Env) {
		u := cl.Nodes[w0].Store().Open(SharedFile).WriteLocal(e.Stamp(), "init", nil, 0)
		for _, w := range cl.Writers[1:] {
			cl.Nodes[w].Store().Open(SharedFile).Apply(u)
		}
	})
	cl.C.RunFor(200 * time.Millisecond)
}

// WriteAt schedules a paper-style update by writer w at virtual time at.
func (cl *Cluster) WriteAt(at time.Duration, w id.NodeID) {
	cl.C.CallAtFile(at, w, SharedFile, func(e env.Env) {
		cl.Nodes[w].Write(e, SharedFile, "draw", []byte("op"), 0)
	})
}

// ScheduleUniformWrites makes every writer update the shared file every
// interval through end — the §6.1 workload ("the four nodes start to
// update the same file every 5 seconds").
func (cl *Cluster) ScheduleUniformWrites(interval, end time.Duration) {
	for t := interval; t <= end; t += interval {
		for _, w := range cl.Writers {
			cl.WriteAt(t, w)
		}
	}
}

// SampleLevels computes, omnisciently, each writer's consistency level
// against the reference consistent state (highest-ID replica, the
// paper's choice), returning the worst ("view from the user") and the
// mean ("system average").
func (cl *Cluster) SampleLevels() (worst, avg float64) {
	cands := make(map[id.NodeID]*vv.Vector, len(cl.Writers))
	for _, w := range cl.Writers {
		cands[w] = cl.Nodes[w].Store().Open(SharedFile).Vector()
	}
	_, ref := cl.Quant.RefSel(cands)
	worst = 1.0
	sum := 0.0
	for _, w := range cl.Writers {
		_, level := cl.Quant.Score(cands[w], ref)
		sum += level
		if level < worst {
			worst = level
		}
	}
	return worst, sum / float64(len(cl.Writers))
}

// RunSampling advances the cluster to end, sampling worst/average levels
// into the recorder every sampleEvery (offset by half a period so samples
// fall between write rounds, like the paper's 5-second sampling).
func (cl *Cluster) RunSampling(rec *Recorder, worstName, avgName string, sampleEvery, end time.Duration) {
	for t := sampleEvery / 2; t <= end; t += sampleEvery {
		cl.C.RunUntil(t)
		w, a := cl.SampleLevels()
		rec.Series(worstName).Add(t, w)
		rec.Series(avgName).Add(t, a)
	}
	cl.C.RunUntil(end)
}

// fmtDur renders a duration in milliseconds with 3 decimals, the paper's
// Table 2 style.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}

// section renders a report header.
func section(title string) string {
	return fmt.Sprintf("\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
