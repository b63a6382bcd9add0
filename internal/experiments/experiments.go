// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the simnet PlanetLab substitute, plus ablations of
// the design choices the paper leaves open (phase-1 semantics, parallel
// phase 2, TTL, reference selection, clock skew, workload). Each
// experiment is a pure function of its parameters and seed, returning a
// Report with the series/rows the paper plots and the scalar headline
// numbers; cmd/idea-bench renders them and the Test*Shape tests assert
// them.
//
// Calibration notes:
//   - the WAN latency model is set so one sequential collect visit costs
//     ≈105 ms, matching Table 2's per-member cost;
//   - the consistency metric is cast with maxima (30, 66, 300;
//     CalibratedMaxima) and equal weights so one 5-second round of
//     four-writer conflicts costs ≈1.5 % of the level, reproducing
//     Fig. 7's floors just below the hint (94 %/84 %).
package experiments

import (
	"fmt"
	"strings"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/quantify"
	"idea/internal/simnet"
	"idea/internal/vv"
)

// SharedFile is the file all paper experiments contend on.
const SharedFile = id.FileID("whiteboard")

// The paper's evaluation setup (§6): 40 nodes, 4 writers forming the top
// layer, one update per writer every 5 s for 100 s, the consistency level
// sampled every 5 s.
const (
	paperNodes    = 40
	paperWriters  = 4
	writeInterval = 5 * time.Second
	paperDuration = 100 * time.Second
	samplePeriod  = 5 * time.Second
)

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
	// File is the file the writers contend on; empty means SharedFile.
	File id.FileID
	// MaxSkew bounds per-node clock skew (the NTP assumption of §4.4.1).
	MaxSkew time.Duration
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
	File    id.FileID
	Quant   *quantify.Quantifier
}

// CalibratedMaxima are the experiment-wide Formula 1 maxima.
func CalibratedMaxima() (num, ord, stale float64) { return 30, 66, 300 }

// NewCluster builds the paper topology: cfg.Nodes nodes spanning a WAN,
// with the first cfg.Writers node IDs pinned as the contended file's top
// layer (the "after warming up, the four writers form a top layer"
// configuration of §6.1), every node scoring with the calibrated maxima.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes == 0 {
		cfg.Nodes = paperNodes
	}
	if cfg.Writers == 0 {
		cfg.Writers = paperWriters
	}
	if cfg.File == "" {
		cfg.File = SharedFile
	}
	all := cluster.IDs(cfg.Nodes)
	writers := all[:cfg.Writers:cfg.Writers]
	s, err := cluster.NewSim(cluster.Topology{
		Nodes:     all,
		TopLayers: map[id.FileID][]id.NodeID{cfg.File: writers},
		Hook: func(nid id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.DisableGossip = !cfg.Gossip
			if cfg.Mutate != nil {
				cfg.Mutate(nid, o)
			}
			return nil
		},
	}, simnet.Config{Seed: cfg.Seed, Latency: simnet.WAN{}, MaxSkew: cfg.MaxSkew})
	if err != nil {
		// Only opening a journal can fail, and experiments run without one.
		panic(err)
	}
	num, ord, stale := CalibratedMaxima()
	for _, nd := range s.Nodes {
		if err := nd.SetConsistencyMetric(num, ord, stale, nil); err != nil {
			panic(err)
		}
	}
	return &Cluster{C: s.C, Nodes: s.Nodes, All: all, Writers: writers, File: cfg.File, Quant: s.Nodes[all[0]].Quantifier()}
}

// ScheduleWarmup gives every writer a shared first update at 100 ms so the
// replicas have a common consistent prefix (staleness then measures
// divergence age, not time since the epoch).
func (cl *Cluster) ScheduleWarmup() {
	w0 := cl.Writers[0]
	cl.C.CallAtFile(100*time.Millisecond, w0, cl.File, func(e env.Env) {
		u := cl.Nodes[w0].Store().Open(cl.File).WriteLocal(e.Stamp(), "init", nil, 0)
		for _, w := range cl.Writers[1:] {
			cl.Nodes[w].Store().Open(cl.File).Apply(u)
		}
	})
}

// Warmup schedules the warm-up and runs the cluster past it.
func (cl *Cluster) Warmup() {
	cl.ScheduleWarmup()
	cl.C.RunFor(200 * time.Millisecond)
}

// HintAt makes every writer declare the hint level at virtual time at,
// inside the file's serialization domain.
func (cl *Cluster) HintAt(at time.Duration, level float64) {
	for _, w := range cl.Writers {
		w := w
		cl.C.CallAtFile(at, w, cl.File, func(env.Env) {
			if err := cl.Nodes[w].SetHint(cl.File, level); err != nil {
				panic(err)
			}
		})
	}
}

// WriteAt schedules a paper-style update by writer w at virtual time at.
func (cl *Cluster) WriteAt(at time.Duration, w id.NodeID) {
	cl.C.CallAtFile(at, w, cl.File, func(e env.Env) {
		cl.Nodes[w].Write(e, cl.File, "draw", []byte("op"), 0)
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
		cands[w] = cl.Nodes[w].Store().Open(cl.File).Vector()
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
