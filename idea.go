// Package idea is the public facade of this repository's reproduction of
// "IDEA: An Infrastructure for Detection-based Adaptive Consistency
// Control in Replicated Services" (Yijun Lu, Ying Lu, Hong Jiang;
// UNL TR-UNL-CSE-2007-0001 / HPDC 2007).
//
// IDEA is middleware between applications and a replication-based storage
// substrate. Instead of enforcing a predefined consistency level, it
// *detects* inconsistencies as they arise — using a two-layer
// infrastructure whose small "temperature overlay" of active writers
// catches the vast majority of conflicts within a round trip — and
// *resolves* them only when the application's current requirement calls
// for it: on explicit user demand, when a hint level is violated, or on
// an adaptively scheduled background cadence.
//
// # Quick start
//
//	all := []idea.NodeID{1, 2, 3, 4}
//	cluster := idea.NewEmulatedCluster(idea.EmulatedClusterConfig{Seed: 1, Nodes: all})
//	for _, n := range cluster.Nodes() {
//		n.SetHint("board", 0.95) // keep the board 95% consistent
//	}
//	...
//
// See examples/ for complete programs and internal/experiments for the
// code that regenerates every table and figure of the paper.
package idea

import (
	"log"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/quantify"
	"idea/internal/resolve"
	"idea/internal/simnet"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Core identifiers and data types.
type (
	// NodeID identifies a replica/participant.
	NodeID = id.NodeID
	// FileID names a shared file/object; each has its own top layer.
	FileID = id.FileID
	// Priority ranks users for priority-based resolution.
	Priority = id.Priority
	// Update is one write operation on a shared file.
	Update = wire.Update
	// Vector is the extended version vector of Fig. 5.
	Vector = vv.Vector
	// Triple is the <numerical, order, staleness> error of §4.4.
	Triple = vv.Triple
	// Weights weighs the triple members in Formula 1.
	Weights = quantify.Weights
	// Maxima are the per-metric maximum errors of Formula 1.
	Maxima = quantify.Maxima
)

// Node is one IDEA middleware instance (the paper's per-node deployment
// of Fig. 1). It exposes the Table 1 developer API (SetConsistencyMetric,
// SetWeight, SetResolution, SetHint, DemandActiveResolution,
// SetBackgroundFreq) and the end-user interaction surface (Complain).
type Node = core.Node

// Options configures a Node.
type Options = core.Options

// Mode is the per-file adaptive scheme of §4.6.
type Mode = core.Mode

// The adaptive schemes.
const (
	OnDemand       = core.OnDemand
	HintBased      = core.HintBased
	FullyAutomatic = core.FullyAutomatic
)

// AutoController drives fully-automatic background-resolution frequency
// (Formula 4 plus learned undersell/oversell bounds).
type AutoController = core.AutoController

// Alert is a bottom-layer discrepancy notification (§4.4.2).
type Alert = core.Alert

// Resolution policies (§4.5.1), usable with Node.SetResolution.
const (
	InvalidateBoth = int(resolve.InvalidateBoth)
	HighestID      = int(resolve.HighestID)
	PriorityBased  = int(resolve.PriorityBased)
	MergeAll       = int(resolve.MergeAll)
)

// DetectResult is one completed detect(update) verdict.
type DetectResult = detect.Result

// MembershipConfig tunes the SWIM-style failure detector (probe interval,
// suspect/confirm timeouts, indirect-probe fan-out).
type MembershipConfig = membership.Config

// MemberRecord is one entry of a node's live membership view.
type MemberRecord = membership.Record

// Env is the runtime handle protocol callbacks receive; application
// drivers obtain one via EmulatedCluster.Call or LiveNode.Inject.
type Env = env.Env

// ---- Telemetry ----

// MetricsRegistry is a node's named metrics collection; every node owns
// one (Node.Metrics) and all subsystems — detection, resolution, gossip,
// replica store, live transport — record into it.
type MetricsRegistry = telemetry.Registry

// MetricsSnapshot is the JSON-friendly export of a registry, as served
// on /metrics by the admin endpoint.
type MetricsSnapshot = telemetry.Snapshot

// ---- Tracing ----

// TracingConfig enables sampled causal tracing on a node (see
// internal/tracing): one write in every SampleEvery mints a trace that
// follows the op through detection, gossip, and resolution, with each
// hop journaled per node. The zero value disables tracing.
type TracingConfig = tracing.Config

// Tracer is a node's causal tracer handle (Node.Tracer; nil when
// tracing is disabled).
type Tracer = tracing.Tracer

// TraceDump is one node's exported span journal, as served on /trace
// and consumed by cmd/idea-trace.
type TraceDump = tracing.Dump

// ---- Health ----

// HealthConfig tunes the per-node health engine (internal/health):
// rule-based anomaly detectors evaluated on the node's own clock, plus
// the always-on flight recorder of recent protocol events. The zero
// value enables evaluation with package defaults.
type HealthConfig = health.Config

// HealthEngine is a node's health engine handle (Node.Health; never
// nil — Enabled reports whether evaluation ticks run).
type HealthEngine = health.Engine

// HealthStatus is the engine's introspection export, as served on
// /health and consumed by cmd/idea-top.
type HealthStatus = health.Status

// FlightRecorder is the always-on bounded ring of recent protocol
// events (Node.Flight), dumped on anomalies, /debug/flight, and SIGQUIT.
type FlightRecorder = health.Recorder

// FlightDump is one node's exported flight-recorder ring.
type FlightDump = health.FlightDump

// FlightDumpOf exports a node's flight-recorder ring — the payload
// served on /debug/flight, dumped on SIGQUIT, and collected per node by
// the soak harness.
func FlightDumpOf(n *Node) FlightDump { return health.DumpOf(n.ID(), n.Flight()) }

// ServeNodeAdmin starts the admin HTTP surface for a node on addr: the
// registry's snapshot on /metrics (JSON, or Prometheus text with
// ?format=prom), pprof profiles on /debug/pprof/, the node's span journal
// on /trace (filterable with ?trace= and ?file=), its health verdict on
// /health (POST ?ack=<detector> acknowledges an active anomaly), and the
// flight recorder on /debug/flight. The /healthz liveness probe is wired
// to the health engine: a critical verdict turns it into a 503. Close the
// returned server to stop it.
func ServeNodeAdmin(addr string, n *Node) (*telemetry.AdminServer, error) {
	return cluster.ServeAdmin(addr, n)
}

// ---- Emulated deployment (the PlanetLab substitute) ----

// EmulatedClusterConfig configures an in-process WAN-emulated cluster
// (round trips of ~105 ms, the paper's PlanetLab testbed scale).
type EmulatedClusterConfig struct {
	// Seed makes the run deterministic.
	Seed int64
	// Nodes lists every participant.
	Nodes []NodeID
	// Shards partitions each node's state into per-file serialization
	// domains (see core.Options.Shards). The emulator stays
	// deterministic: shards are logical, scheduled by a seeded stable
	// tie-break. Zero means 1 — the classic single-loop node.
	Shards int
	// TopLayers optionally pins the per-file top layers; when nil the
	// RanSub temperature overlay elects them dynamically.
	TopLayers map[FileID][]NodeID
	// Loss is the message-drop probability.
	Loss float64
	// GossipEvery sets the bottom-layer sweep period; zero means 10 s.
	GossipEvery time.Duration
	// DisableGossip turns the bottom layer off (as in the paper's §6).
	DisableGossip bool
	// Tracing enables sampled causal tracing on every node. Sampling is
	// a deterministic per-node write counter, so traced emulations stay
	// reproducible.
	Tracing TracingConfig
	// Health tunes the per-node health engine. The zero value enables it
	// with defaults; health ticks ride the virtual clock, send no
	// messages, and draw no randomness, so emulated runs stay fully
	// deterministic seed for seed.
	Health HealthConfig
}

// EmulatedCluster is a deterministic in-process IDEA deployment under
// virtual time.
type EmulatedCluster struct {
	sim   *simnet.Cluster
	nodes map[NodeID]*Node
}

// NewEmulatedCluster builds and starts an emulated deployment.
func NewEmulatedCluster(cfg EmulatedClusterConfig) *EmulatedCluster {
	s, err := cluster.NewSim(cluster.Topology{
		Nodes:     cfg.Nodes,
		TopLayers: cfg.TopLayers,
		Shards:    cfg.Shards,
		Hook: func(_ NodeID, o *Options) func(*Node) env.Handler {
			o.DisableGossip = cfg.DisableGossip
			o.Gossip.Interval = cfg.GossipEvery
			o.Tracing = cfg.Tracing
			o.Health = cfg.Health
			return nil
		},
	}, simnet.Config{Seed: cfg.Seed, Loss: cfg.Loss})
	if err != nil {
		// Only opening a journal can fail, and an emulated cluster has none.
		panic(err)
	}
	return &EmulatedCluster{sim: s.C, nodes: s.Nodes}
}

// Node returns the node with the given ID.
func (ec *EmulatedCluster) Node(nid NodeID) *Node { return ec.nodes[nid] }

// Nodes returns every node in ID order.
func (ec *EmulatedCluster) Nodes() []*Node {
	out := make([]*Node, 0, len(ec.nodes))
	for _, nid := range ec.sim.Nodes() {
		out = append(out, ec.nodes[nid])
	}
	return out
}

// Call schedules fn inside node nid's shard-0 event loop at the given
// virtual offset from now — the way applications issue node-global
// actions. With Shards > 1, per-file operations must use CallFile so they
// run in the file's serialization domain.
func (ec *EmulatedCluster) Call(after time.Duration, nid NodeID, fn func(Env)) {
	ec.sim.CallAt(ec.sim.Elapsed()+after, nid, fn)
}

// CallFile schedules fn inside the serialization domain owning file on
// node nid — the injection point for writes and user actions against one
// file.
func (ec *EmulatedCluster) CallFile(after time.Duration, nid NodeID, file FileID, fn func(Env)) {
	ec.sim.CallAtFile(ec.sim.Elapsed()+after, nid, file, fn)
}

// Run advances virtual time by d, delivering every due message and timer.
func (ec *EmulatedCluster) Run(d time.Duration) { ec.sim.RunFor(d) }

// Elapsed returns total virtual time.
func (ec *EmulatedCluster) Elapsed() time.Duration { return ec.sim.Elapsed() }

// Messages returns the total protocol messages sent so far (the paper's
// overhead metric).
func (ec *EmulatedCluster) Messages() int { return ec.sim.Stats().Total() }

// MessageBytes returns total protocol bytes sent so far.
func (ec *EmulatedCluster) MessageBytes() int { return ec.sim.Stats().Bytes() }

// Partition cuts connectivity between two nodes; Heal restores it.
func (ec *EmulatedCluster) Partition(a, b NodeID) { ec.sim.Partition(a, b) }

// Heal restores connectivity between two nodes.
func (ec *EmulatedCluster) Heal(a, b NodeID) { ec.sim.Heal(a, b) }

// ---- Live deployment (real TCP) ----

// LiveNodeConfig configures a live TCP node.
type LiveNodeConfig struct {
	Self   NodeID
	Listen string // e.g. "127.0.0.1:0"
	// Peers maps every other node to its address; more can be added
	// later with AddPeer.
	Peers map[NodeID]string
	// All lists every node in the deployment (self included).
	All []NodeID
	// TopLayers optionally pins per-file top layers (nil → RanSub).
	TopLayers map[FileID][]NodeID
	// Shards is the number of per-file serialization domains the node
	// runs (see core.Options.Shards).
	// Zero means one per available CPU; set 1 to force the classic
	// single event loop.
	Shards int
	// CompactLogs enables log compaction below the gossip-learned
	// stability frontier (see core.Options.CompactStableLogs): bounded
	// per-file memory, at the cost of reads only serving the live log
	// suffix. Leave off for apps that replay the log as file content.
	CompactLogs bool
	// Swim enables dynamic membership: SWIM-style failure detection
	// evicts dead peers from every layer (and tears down their transport
	// links), and joiners are admitted at runtime. Implied by Join.
	Swim bool
	// SwimConfig optionally tunes the failure detector (probe interval,
	// suspect timeout, ...); nil uses defaults. Join and Addrs are
	// filled in by NewLiveNode.
	SwimConfig *membership.Config
	// Join is a seed node's address: the node starts knowing nobody,
	// fetches the member list from the seed, announces itself, and
	// bootstraps its store via snapshot transfer. All/Peers/TopLayers
	// may be left empty.
	Join string
	// Tracing enables sampled causal tracing (journal served on /trace
	// when the admin endpoint is up; zero disables).
	Tracing TracingConfig
	// Health tunes the health engine (served on /health when the admin
	// endpoint is up). The zero value enables it with defaults.
	Health HealthConfig
	// WalDir enables the durability journal: replica updates of every
	// file are written to one journal under this directory, replayed on
	// restart, and fsynced periodically (see core.Options.Journal). Empty
	// keeps the store memory-only. Records reach the OS once a file holds
	// 8 of the open group, the benchmarked setting (see
	// store.WAL.SetGroupCommit).
	WalDir string
	// Logger receives transport diagnostics (nil = silent).
	Logger *log.Logger
}

// LiveNode is an IDEA node running over real TCP: the same protocol code
// as the emulation, behind sockets.
type LiveNode = cluster.LiveNode

// NewLiveNode builds and starts a live node.
func NewLiveNode(cfg LiveNodeConfig) (*LiveNode, error) {
	t := cluster.Topology{
		Nodes:     cfg.All,
		TopLayers: cfg.TopLayers,
		Shards:    cfg.Shards,
		WalDir:    cfg.WalDir,
		Hook: func(_ NodeID, o *Options) func(*Node) env.Handler {
			o.CompactStableLogs = cfg.CompactLogs
			o.Tracing = cfg.Tracing
			o.Health = cfg.Health
			return nil
		},
	}
	if t.Shards == 0 {
		t.Shards = core.NumShardsAuto
	}
	if cfg.Swim || cfg.Join != "" {
		t.Swim = cfg.SwimConfig
		if t.Swim == nil {
			t.Swim = &membership.Config{}
		}
	}
	return cluster.Listen(t, cluster.Endpoint{
		Self: cfg.Self, Listen: cfg.Listen, Peers: cfg.Peers, Join: cfg.Join, Logger: cfg.Logger,
	})
}
