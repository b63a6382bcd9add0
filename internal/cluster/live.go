package cluster

import (
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/store"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/transport"
)

// liveGroupCommit is how many records of one file a live node's journal
// batches before a write — the benchmarked setting (see
// store.WAL.SetGroupCommit).
// Emulated nodes keep 1, so a journal fault surfaces at the event that
// hit it.
const liveGroupCommit = 8

// Endpoint is what differs per process in a live deployment, next to the
// Topology all processes share.
type Endpoint struct {
	Self   id.NodeID
	Listen string // e.g. "127.0.0.1:0"
	// Peers maps other nodes to their addresses; AddPeer adds more later.
	Peers map[id.NodeID]string
	// Join is a seed node's address: the node fetches the member list
	// from it, announces itself, and bootstraps its store via snapshot
	// transfer. Implies dynamic membership.
	Join string
	// Logger receives transport diagnostics (nil = silent).
	Logger *log.Logger
}

// LiveNode is an IDEA node running over real TCP: the same protocol code
// as the emulation, behind sockets.
type LiveNode struct {
	N  *core.Node
	tn *transport.Node
}

// Listen builds the node ep describes in topology t, binds its listener,
// wires membership events to the transport's peer table, and starts it.
func Listen(t Topology, ep Endpoint) (*LiveNode, error) {
	var wal *store.WAL
	if t.WalDir != "" {
		var err error
		if wal, err = store.OpenWAL(t.WalDir); err != nil {
			return nil, err
		}
		wal.SetGroupCommit(liveGroupCommit)
	}
	swim := t.Swim
	if swim == nil && ep.Join != "" {
		swim = &membership.Config{}
	}
	if swim != nil {
		sc := *swim
		sc.Addrs = ep.Peers
		if ep.Join != "" {
			// The seed's ID is unknown until it answers; JoinRequests go
			// to the reserved alias, which the transport resolves to the
			// configured address.
			sc.Join = membership.SeedAlias
		}
		swim = &sc
	}
	n, h := t.build(ep.Self, t.Nodes, t.static(t.Nodes), swim, wal)
	tn, err := transport.Listen(ep.Self, ep.Listen, h, ep.Logger)
	if err != nil {
		return nil, err
	}
	tn.AttachMetrics(n.Metrics())
	// Peer-link churn lands in the flight recorder: when an anomaly dumps
	// the ring, connection flaps around the event are right there. (A live
	// node may read the wall clock — only simnet-driven protocol code is
	// bound to the virtual one.)
	flight := n.Flight()
	tn.SetPeerEventHook(func(event string, peer id.NodeID) {
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
	for nid, addr := range ep.Peers {
		tn.AddPeer(nid, addr)
	}
	if swim != nil {
		// The listener is bound: the agent can now advertise a dialable
		// address, and membership events drive the transport's peer
		// table — a learned address becomes dialable before any reply
		// flows, and a confirmed-dead peer's redial loop is torn down.
		n.SetAdvertiseAddr(tn.Addr())
		if ep.Join != "" {
			tn.AddPeer(membership.SeedAlias, ep.Join)
			// Once the seed's real identity is known the alias link has
			// served its purpose; retiring it also stops it from
			// redialing the seed's old address forever if the seed later
			// dies.
			n.SetOnJoined(func(env.Env, id.NodeID) { tn.RemovePeer(membership.SeedAlias) })
		}
		n.SetOnMember(func(_ env.Env, ev membership.Event) {
			switch {
			case ev.Status == membership.Dead:
				tn.RemovePeer(ev.Node)
			case ev.Addr != "" && ev.Node != ep.Self:
				tn.AddPeer(ev.Node, ev.Addr)
			}
		})
		// A probe from a node this one declared dead (whose link was
		// therefore torn down) re-registers its address so the reply —
		// and the record it needs to refute — can be delivered.
		n.SwimAgent().OnContact(func(_ env.Env, nid id.NodeID, addr string) {
			tn.AddPeer(nid, addr)
		})
	}
	tn.Start()
	return &LiveNode{N: n, tn: tn}, nil
}

// Addr returns the bound listen address.
func (ln *LiveNode) Addr() string { return ln.tn.Addr() }

// Metrics returns the node's telemetry registry (transport included).
func (ln *LiveNode) Metrics() *telemetry.Registry { return ln.N.Metrics() }

// AddPeer registers a peer address.
func (ln *LiveNode) AddPeer(nid id.NodeID, addr string) { ln.tn.AddPeer(nid, addr) }

// Inject runs fn in the node's shard-0 domain (serialized with message
// handling) — use it for node-global actions. Per-file operations
// (writes, hints, per-file reads) must use InjectFile so they execute in
// the file's serialization domain. fn may run on the caller's goroutine
// before Inject returns, so the caller must not hold a lock fn takes;
// hand results back through a buffered channel, a close or a WaitGroup.
func (ln *LiveNode) Inject(fn func(env.Env)) { ln.tn.Inject(fn) }

// InjectFile runs fn in the domain of the shard owning file — the
// injection point for writes and user actions against one file. As with
// Inject, fn may run on the caller's goroutine before InjectFile returns.
func (ln *LiveNode) InjectFile(file id.FileID, fn func(env.Env)) { ln.tn.InjectFile(file, fn) }

// NumShards returns how many serialization domains the node runs.
func (ln *LiveNode) NumShards() int { return ln.tn.NumShards() }

// Members returns the node's live membership view (nil without dynamic
// membership): every known node with its believed status and incarnation.
func (ln *LiveNode) Members() []membership.Record {
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

// ServeAdmin starts a node's admin HTTP surface on addr; idea.ServeNodeAdmin
// documents the endpoints.
func ServeAdmin(addr string, n *core.Node) (*telemetry.AdminServer, error) {
	return telemetry.ServeAdminWith(addr, n.Metrics(), map[string]http.Handler{
		"/trace":        tracing.Handler(n.Tracer()),
		"/health":       health.Handler(n.Health()),
		"/debug/flight": health.FlightHandler(n.ID(), n.Flight()),
		"/healthz":      health.LivenessHandler(n.Health()),
	})
}

// Loopback is a live cluster inside one process: every node behind its own
// TCP listener on 127.0.0.1, fully meshed.
type Loopback struct {
	topo Topology

	mu     sync.Mutex
	nodes  map[id.NodeID]*LiveNode
	incarn map[id.NodeID]int
}

// NewLoopback builds, starts and meshes every node of t.
func NewLoopback(t Topology) (*Loopback, error) {
	l := &Loopback{
		topo:   t,
		nodes:  make(map[id.NodeID]*LiveNode, len(t.Nodes)),
		incarn: make(map[id.NodeID]int, len(t.Nodes)),
	}
	for _, nid := range t.Nodes {
		if _, err := l.listen(t, Endpoint{Self: nid}); err != nil {
			l.Close()
			return nil, err
		}
	}
	for _, a := range t.Nodes {
		for _, b := range t.Nodes {
			if a != b {
				l.nodes[a].AddPeer(b, l.nodes[b].Addr())
			}
		}
	}
	return l, nil
}

// listen starts ep.Self's next incarnation on a fresh loopback port and
// records it as current.
func (l *Loopback) listen(t Topology, ep Endpoint) (*LiveNode, error) {
	l.mu.Lock()
	l.incarn[ep.Self]++
	k := l.incarn[ep.Self]
	l.mu.Unlock()
	if t.WalDir != "" {
		t.WalDir = incarnationDir(t.WalDir, ep.Self, k)
	}
	ep.Listen = "127.0.0.1:0"
	ln, err := Listen(t, ep)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.nodes[ep.Self] = ln
	l.mu.Unlock()
	return ln, nil
}

// Node returns nid's current incarnation; safe concurrently with Rejoin.
func (l *Loopback) Node(nid id.NodeID) *LiveNode {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nodes[nid]
}

// Rejoin replaces nid, whose previous incarnation the caller has closed,
// with a fresh one that knows only the top-layer pins and the address of
// the seed, Nodes[0], and bootstraps from it like a replaced process.
// Peers learn its new port through membership, so the topology needs Swim.
func (l *Loopback) Rejoin(nid id.NodeID) (*LiveNode, error) {
	if l.topo.Swim == nil {
		return nil, fmt.Errorf("cluster: rejoin of %v needs a Swim topology", nid)
	}
	t := l.topo
	t.Nodes = nil
	return l.listen(t, Endpoint{Self: nid, Join: l.Node(l.topo.Nodes[0]).Addr()})
}

// Close shuts every current incarnation down.
func (l *Loopback) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ln := range l.nodes {
		ln.Close()
	}
}
