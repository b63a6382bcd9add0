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
	"net/http"
	"time"

	"idea/internal/core"
	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/gossip"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/overlay"
	"idea/internal/quantify"
	"idea/internal/ransub"
	"idea/internal/resolve"
	"idea/internal/simnet"
	"idea/internal/store"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/transport"
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

// ServeMetrics starts an admin HTTP listener on addr serving the
// registry's snapshot on /metrics (JSON, or Prometheus text with
// ?format=prom), a liveness probe on /healthz, and pprof profiles on
// /debug/pprof/. Close the returned server to stop it.
func ServeMetrics(addr string, reg *MetricsRegistry) (*telemetry.AdminServer, error) {
	return telemetry.ServeAdmin(addr, reg)
}

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

// ServeNodeAdmin starts the full admin surface for a node: everything
// ServeMetrics serves, plus the node's span journal on /trace
// (filterable with ?trace= and ?file=), its health verdict on /health
// (POST ?ack=<detector> acknowledges an active anomaly), and the flight
// recorder on /debug/flight. The default /healthz liveness probe is
// replaced by one wired to the health engine: a critical verdict turns
// it into a 503. Close the returned server to stop it.
func ServeNodeAdmin(addr string, n *Node) (*telemetry.AdminServer, error) {
	return telemetry.ServeAdminWith(addr, n.Metrics(), map[string]http.Handler{
		"/trace":        tracing.Handler(n.Tracer()),
		"/health":       health.Handler(n.Health()),
		"/debug/flight": health.FlightHandler(n.ID(), n.Flight()),
		"/healthz":      health.LivenessHandler(n.Health()),
	})
}

// NewNode constructs a bare IDEA node; most callers use
// NewEmulatedCluster or NewLiveNode instead.
func NewNode(self NodeID, opts Options) *Node { return core.NewNode(self, opts) }

// ---- Emulated deployment (the PlanetLab substitute) ----

// EmulatedClusterConfig configures an in-process WAN-emulated cluster.
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
	// MeanRTT sets the emulated WAN round trip; zero means ~105 ms
	// (the paper's PlanetLab testbed scale).
	MeanRTT time.Duration
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
	ids   []NodeID
}

// NewEmulatedCluster builds and starts an emulated deployment.
func NewEmulatedCluster(cfg EmulatedClusterConfig) *EmulatedCluster {
	var lat simnet.LatencyModel
	if cfg.MeanRTT > 0 {
		lat = simnet.WAN{Median: cfg.MeanRTT / 2}
	}
	sim := simnet.New(simnet.Config{Seed: cfg.Seed, Latency: lat, Loss: cfg.Loss})
	ec := &EmulatedCluster{sim: sim, nodes: make(map[NodeID]*Node), ids: append([]NodeID(nil), cfg.Nodes...)}
	var mem overlay.Membership
	if cfg.TopLayers != nil {
		mem = overlay.NewStatic(cfg.Nodes, cfg.TopLayers)
	}
	for _, nid := range cfg.Nodes {
		opts := Options{
			Membership:    mem,
			All:           cfg.Nodes,
			Shards:        cfg.Shards,
			DisableGossip: cfg.DisableGossip,
			DisableRansub: cfg.TopLayers != nil,
			Gossip:        gossip.Config{Interval: cfg.GossipEvery},
			Ransub:        ransub.Config{},
			Tracing:       cfg.Tracing,
			Health:        cfg.Health,
		}
		n := core.NewNode(nid, opts)
		ec.nodes[nid] = n
		sim.Add(nid, n)
	}
	sim.Start()
	return ec
}

// Node returns the node with the given ID.
func (ec *EmulatedCluster) Node(nid NodeID) *Node { return ec.nodes[nid] }

// Nodes returns every node in ID order.
func (ec *EmulatedCluster) Nodes() []*Node {
	out := make([]*Node, 0, len(ec.ids))
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
	ec.sim.CallAt(ec.sim.Elapsed()+after, nid, func(e env.Env) { fn(e) })
}

// CallFile schedules fn inside the serialization domain owning file on
// node nid — the injection point for writes and user actions against one
// file.
func (ec *EmulatedCluster) CallFile(after time.Duration, nid NodeID, file FileID, fn func(Env)) {
	ec.sim.CallAtFile(ec.sim.Elapsed()+after, nid, file, func(e env.Env) { fn(e) })
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
	// Shards is the number of per-file serialization domains — and live
	// executor goroutines — the node runs (see core.Options.Shards).
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
	// suspect timeout, ...); nil uses defaults. Join/SelfAddr/Addrs are
	// filled in by NewLiveNode.
	SwimConfig *membership.Config
	// Join is a seed node's address: the node starts knowing nobody,
	// fetches the member list from the seed, announces itself, and
	// bootstraps its store via snapshot transfer. All/Peers/TopLayers
	// may be left empty.
	Join string
	// ShardQueue/SendQueue size the transport's per-shard inbound event
	// queues and per-peer outbound frame queues (0 = defaults). Inbound
	// buffering is per serialization domain, so total capacity — and
	// backpressure — scales with Shards.
	ShardQueue int
	SendQueue  int
	// Tracing enables sampled causal tracing (journal served on /trace
	// when the admin endpoint is up; zero disables).
	Tracing TracingConfig
	// Health tunes the health engine (served on /health when the admin
	// endpoint is up). The zero value enables it with defaults.
	Health HealthConfig
	// WalDir enables the durability journal: replica updates are written
	// to per-file logs under this directory, replayed on restart, and
	// fsynced periodically (see core.Options.Journal). Empty keeps the
	// store memory-only. Records reach the OS in groups of 8, the
	// benchmarked setting (see store.WAL.SetGroupCommit).
	WalDir string
	// Logger receives transport diagnostics (nil = silent).
	Logger *log.Logger
}

// LiveNode is an IDEA node running over real TCP: the same protocol code
// as the emulation, behind sockets.
type LiveNode struct {
	N  *Node
	tn *transport.Node
}

// NewLiveNode builds and starts a live node.
func NewLiveNode(cfg LiveNodeConfig) (*LiveNode, error) {
	var mem overlay.Membership
	if cfg.TopLayers != nil {
		mem = overlay.NewStatic(cfg.All, cfg.TopLayers)
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = core.NumShardsAuto
	}
	opts := Options{
		Membership:        mem,
		All:               cfg.All,
		Shards:            shards,
		DisableRansub:     cfg.TopLayers != nil,
		CompactStableLogs: cfg.CompactLogs,
		Tracing:           cfg.Tracing,
		Health:            cfg.Health,
	}
	if cfg.WalDir != "" {
		wal, err := store.OpenWAL(cfg.WalDir)
		if err != nil {
			return nil, err
		}
		wal.SetGroupCommit(8)
		opts.Journal = wal
	}
	if cfg.Swim || cfg.Join != "" {
		sc := membership.Config{}
		if cfg.SwimConfig != nil {
			sc = *cfg.SwimConfig
		}
		sc.Addrs = cfg.Peers
		if cfg.Join != "" {
			// The seed's ID is unknown until it answers; JoinRequests go
			// to the reserved alias, which the transport resolves to the
			// configured address.
			sc.Join = membership.SeedAlias
		}
		opts.Swim = &sc
	}
	n := core.NewNode(cfg.Self, opts)
	tn, err := transport.ListenOpts(cfg.Self, cfg.Listen, n, cfg.Logger,
		transport.Opts{ShardQueue: cfg.ShardQueue, SendQueue: cfg.SendQueue})
	if err != nil {
		return nil, err
	}
	tn.AttachMetrics(n.Metrics())
	// Peer-link churn lands in the flight recorder: when an anomaly dumps
	// the ring, connection flaps around the event are right there. (A live
	// node may read the wall clock — only simnet-driven protocol code is
	// bound to the virtual one.)
	flight := n.Flight()
	tn.SetPeerEventHook(func(event string, peer NodeID) {
		kind := map[string]string{
			"add":    health.FKPeerAdd,
			"remove": health.FKPeerRemove,
			"up":     health.FKPeerUp,
			"down":   health.FKPeerDown,
		}[event]
		if kind != "" {
			flight.Record(time.Now(), kind, "", peer, 0, "")
		}
	})
	for nid, addr := range cfg.Peers {
		tn.AddPeer(nid, addr)
	}
	if opts.Swim != nil {
		// The listener is bound: the agent can now advertise a dialable
		// address, and membership events drive the transport's peer
		// table — a learned address becomes dialable before any reply
		// flows, and a confirmed-dead peer's redial loop is torn down.
		n.SetAdvertiseAddr(tn.Addr())
		if cfg.Join != "" {
			tn.AddPeer(membership.SeedAlias, cfg.Join)
			// Once the seed's real identity is known the alias link has
			// served its purpose; retiring it also stops it from
			// redialing the seed's old address forever if the seed later
			// dies.
			n.SetOnJoined(func(Env, NodeID) { tn.RemovePeer(membership.SeedAlias) })
		}
		n.SetOnMember(func(_ Env, ev membership.Event) {
			switch {
			case ev.Status == membership.Dead:
				tn.RemovePeer(ev.Node)
			case ev.Addr != "" && ev.Node != cfg.Self:
				tn.AddPeer(ev.Node, ev.Addr)
			}
		})
		// A probe from a node this one declared dead (whose link was
		// therefore torn down) re-registers its address so the reply —
		// and the record it needs to refute — can be delivered.
		n.SwimAgent().OnContact(func(_ Env, nid NodeID, addr string) {
			tn.AddPeer(nid, addr)
		})
	}
	tn.Start()
	return &LiveNode{N: n, tn: tn}, nil
}

// Addr returns the bound listen address.
func (ln *LiveNode) Addr() string { return ln.tn.Addr() }

// Metrics returns the node's telemetry registry (transport included).
func (ln *LiveNode) Metrics() *MetricsRegistry { return ln.N.Metrics() }

// AddPeer registers a peer address.
func (ln *LiveNode) AddPeer(nid NodeID, addr string) { ln.tn.AddPeer(nid, addr) }

// Inject runs fn inside the node's shard-0 event loop (serialized with
// message handling) — use it for node-global actions. Per-file operations
// (writes, hints, per-file reads) must use InjectFile so they execute in
// the file's serialization domain.
func (ln *LiveNode) Inject(fn func(Env)) { ln.tn.Inject(func(e env.Env) { fn(e) }) }

// InjectFile runs fn inside the event loop of the shard owning file —
// the injection point for writes and user actions against one file.
func (ln *LiveNode) InjectFile(file FileID, fn func(Env)) {
	ln.tn.InjectFile(file, func(e env.Env) { fn(e) })
}

// NumShards returns how many serialization domains (live executors) the
// node runs.
func (ln *LiveNode) NumShards() int { return ln.tn.NumShards() }

// Members returns the node's live membership view (nil without Swim/Join):
// every known node with its believed status and incarnation.
func (ln *LiveNode) Members() []MemberRecord {
	if a := ln.N.SwimAgent(); a != nil {
		return a.Members()
	}
	return nil
}

// JoinCatchup reports how long the snapshot bootstrap took; ok is false
// while it is still running or when the node did not join via a seed.
func (ln *LiveNode) JoinCatchup() (time.Duration, bool) { return ln.N.JoinCatchup() }

// Leave announces voluntary departure to the cluster (dynamic membership
// only; a no-op otherwise) and waits — bounded by timeout — for the
// announcement to be issued, leaving a short flush window for the frames.
// Call it before Close for a graceful shutdown.
func (ln *LiveNode) Leave(timeout time.Duration) {
	done := make(chan struct{})
	ln.tn.Inject(func(e env.Env) {
		ln.N.Leave(e)
		close(done)
	})
	select {
	case <-done:
		// The leave frames sit in per-peer queues; give the writers a
		// moment before the caller tears the sockets down.
		time.Sleep(50 * time.Millisecond)
	case <-time.After(timeout):
	}
}

// Close shuts the node down.
func (ln *LiveNode) Close() error { return ln.tn.Close() }
