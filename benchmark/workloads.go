package main

import (
	"fmt"
	"time"

	"idea/internal/id"
)

// spec is one workload's frozen shape. Every field is an input the program
// under test can observe (cluster size, file count, op mix…); nothing in
// the run path branches on Name.
type spec struct {
	Name string
	Why  string

	Sim     bool // simnet virtual time (open loop) vs transport+WAL (closed loop)
	Nodes   int
	Files   int
	TopSize int // pinned top-layer members per file
	Shards  int // core.Options.Shards
	Payload int // bytes per write

	// Closed-loop (live) shape.
	Clients     int     // one goroutine each; client i drives node i%Nodes
	ReadShare   float64 // share of ops that are Node.Read
	CheckShare  float64 // share of ops that are Node.ReadChecked
	Preload     int     // updates per file applied to every replica during set-up
	WarmupOps   int     // unscored ops per client before the window opens
	CooldownSec float64 // unscored load after the window, so late writes still get a trigger

	// Open-loop (sim) shape.
	WritePeriod      time.Duration // every top-layer member writes its file this often
	VirtualPerSecond float64       // virtual seconds simulated per requested second
	SimWarmup        time.Duration // virtual, unscored
	SimCooldown      time.Duration // virtual, unscored

	// Setups is how many times the cluster is built and warmed per run;
	// setup_s is the median, the last one is the cluster that is measured.
	Setups int
}

// Frozen sizes. The sandbox the benchmark was sized on has nproc = 2, so no
// workload uses more than two clients.
var workloads = []spec{
	{
		Name: "sim-wan-hint",
		Why:  "the paper's shape: 12 simnet nodes on a WAN model, 8 files with 4-member top layers writing every 5 virtual s; latency is protocol schedule, not CPU",
		Sim:  true, Nodes: 12, Files: 8, TopSize: 4, Shards: 1, Payload: 16,
		WritePeriod: 5 * time.Second, VirtualPerSecond: 320,
		SimWarmup: 300 * time.Second, SimCooldown: 30 * time.Second,
		Setups: 5,
	},
	{
		Name:  "live3-conflict",
		Why:   "3 nodes over loopback TCP with WALs, 2 closed-loop writers on 16 shared files: detect, wire, transport, resolve and WAL apply all run per op",
		Nodes: 3, Files: 16, TopSize: 3, Shards: 1, Payload: 256,
		Clients: 2, WarmupOps: 200, CooldownSec: 0.3,
		Setups: 7,
	},
	{
		Name:  "live1-burst",
		Why:   "1 node, no peers, WAL on, 2 shards, 2 closed-loop writers on 64 files: core write path and WAL with no network and no resolution",
		Nodes: 1, Files: 64, TopSize: 1, Shards: 2, Payload: 256,
		Clients: 2, WarmupOps: 200, CooldownSec: 0.1,
		Setups: 9,
	},
	{
		Name:  "live3-readmix",
		Why:   "the live3 cluster with every file preloaded 2000 deep; 70% Read, 10% ReadChecked, 20% writes: the store and core layers used the other way round",
		Nodes: 3, Files: 16, TopSize: 3, Shards: 1, Payload: 256,
		Clients: 2, ReadShare: 0.7, CheckShare: 0.1, Preload: 2000, WarmupOps: 200, CooldownSec: 0.3,
		Setups: 5,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.Name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// hintLevel is the HintBased tolerance every file is given.
const hintLevel = 0.95

// layout derives the node list, file list and pinned top layers of a spec:
// file i's top layer is nodes i..i+TopSize-1 (mod Nodes), 1-based IDs.
func (sp spec) layout() (all []id.NodeID, files []id.FileID, top map[id.FileID][]id.NodeID) {
	for n := 1; n <= sp.Nodes; n++ {
		all = append(all, id.NodeID(n))
	}
	top = make(map[id.FileID][]id.NodeID, sp.Files)
	for i := 0; i < sp.Files; i++ {
		f := id.FileID(fmt.Sprintf("f%02d", i))
		files = append(files, f)
		for k := 0; k < sp.TopSize; k++ {
			top[f] = append(top[f], all[(i+k)%sp.Nodes])
		}
	}
	return all, files, top
}

// preloadPerWriter splits a file's preloaded depth over the nodes: every
// replica starts with the same per-writer prefix.
func (sp spec) preloadPerWriter() map[id.NodeID]int {
	out := make(map[id.NodeID]int, sp.Nodes)
	for n := 1; n <= sp.Nodes; n++ {
		c := sp.Preload / sp.Nodes
		if n <= sp.Preload%sp.Nodes {
			c++
		}
		out[id.NodeID(n)] = c
	}
	return out
}
