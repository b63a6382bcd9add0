// Package cluster is the one place a set of IDEA nodes becomes a running
// cluster (Fig. 1's per-node deployment on the two-layer overlay): a
// declarative Topology in, nodes plus the runtime driving them out. NewSim
// yields a started simnet.Cluster, NewLoopback in-process transport nodes
// on 127.0.0.1:0 already meshed, Listen the one live node of a process.
// What every builder must decide the same way is decided here once:
// Membership/All/DisableRansub from the top-layer pins, nodes added in
// list order, one journal directory per incarnation, and what a restarted
// or joining node is told.
package cluster

import (
	"fmt"
	"path/filepath"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/overlay"
	"idea/internal/simnet"
	"idea/internal/store"
)

// Topology declares a cluster independently of the runtime driving it.
type Topology struct {
	// Nodes lists every initial member; nodes are built and added in this
	// order, which seeded schedules depend on. IDs(n) gives 1..n.
	Nodes []id.NodeID
	// TopLayers pins the per-file top layers. Nil leaves election to the
	// RanSub temperature overlay; non-nil (even empty) turns RanSub off.
	TopLayers map[id.FileID][]id.NodeID
	// Shards is each node's serialization-domain count, as
	// core.Options.Shards: zero means 1, core.NumShardsAuto one per CPU.
	Shards int
	// Swim enables dynamic membership with this failure-detector tuning
	// (Join and Addrs are the builder's to fill); nil keeps the
	// member list fixed. Under Swim a later incarnation of a node, restart
	// or join, is told only the seed, Nodes[0], like a replaced process.
	Swim *membership.Config
	// WalDir journals every node; empty keeps the stores memory-only.
	// NewSim and NewLoopback give each incarnation its own subdirectory
	// n<id>-i<k>; Listen, whose process may restart on its old state,
	// journals into WalDir itself.
	WalDir string
	// Hook, when set, runs once per incarnation on the options the builder
	// derived. It may adjust o, and may return a wrap that turns the built
	// node into the handler the runtime drives instead (an application
	// layered over the node); a nil wrap keeps the node itself.
	Hook func(nid id.NodeID, o *core.Options) (wrap func(*core.Node) env.Handler)
}

// IDs returns the node IDs 1..n.
func IDs(n int) []id.NodeID {
	ids := make([]id.NodeID, n)
	for i := range ids {
		ids[i] = id.NodeID(i + 1)
	}
	return ids
}

// static is the pinned two-layer view over all; nil when nothing is pinned.
func (t Topology) static(all []id.NodeID) overlay.Membership {
	if t.TopLayers == nil {
		return nil
	}
	return overlay.NewStatic(all, t.TopLayers)
}

// incarnationDir is the journal directory of nid's k-th incarnation.
func incarnationDir(root string, nid id.NodeID, k int) string {
	return filepath.Join(root, fmt.Sprintf("n%d-i%d", nid, k))
}

// build constructs one incarnation of nid and the handler to drive for it.
func (t Topology) build(nid id.NodeID, all []id.NodeID, mem overlay.Membership, swim *membership.Config, wal *store.WAL) (*core.Node, env.Handler) {
	o := core.Options{
		Membership:    mem,
		All:           all,
		Shards:        t.Shards,
		DisableRansub: mem != nil,
		Swim:          swim,
		Journal:       wal,
	}
	var wrap func(*core.Node) env.Handler
	if t.Hook != nil {
		wrap = t.Hook(nid, &o)
	}
	n := core.NewNode(nid, o)
	if wrap != nil {
		return n, wrap(n)
	}
	return n, n
}

// Sim is an emulated cluster: the nodes plus the started simulator.
type Sim struct {
	C *simnet.Cluster
	// Nodes maps every ID to its current incarnation; Factory replaces
	// entries in place, so a holder of the map sees the restarted node.
	Nodes map[id.NodeID]*core.Node

	topo   Topology
	mem    overlay.Membership
	incarn map[id.NodeID]int
}

// NewSim builds t's nodes, adds them to a new simulator configured by net
// and starts it. The only error source is opening a journal.
func NewSim(t Topology, net simnet.Config) (*Sim, error) {
	s := &Sim{
		C:      simnet.New(net),
		Nodes:  make(map[id.NodeID]*core.Node, len(t.Nodes)),
		topo:   t,
		mem:    t.static(t.Nodes),
		incarn: make(map[id.NodeID]int, len(t.Nodes)),
	}
	for _, nid := range t.Nodes {
		mk, err := s.incarnation(nid, true)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.C.Add(nid, mk())
	}
	s.C.Start()
	return s, nil
}

// Factory prepares nid's next incarnation — a restart, or the join of a
// new member — and returns the constructor simnet.AddAt runs at boot. Its
// journal directory is opened here, at scheduling time, so a failure is
// the caller's to return instead of surfacing mid-run.
func (s *Sim) Factory(nid id.NodeID) (func() env.Handler, error) {
	return s.incarnation(nid, false)
}

func (s *Sim) incarnation(nid id.NodeID, first bool) (func() env.Handler, error) {
	s.incarn[nid]++
	var wal *store.WAL
	if dir := s.topo.WalDir; dir != "" {
		var err error
		if wal, err = store.OpenWAL(incarnationDir(dir, nid, s.incarn[nid])); err != nil {
			return nil, err
		}
	}
	all, mem, swim := s.topo.Nodes, s.mem, s.topo.Swim
	if swim != nil && !first {
		joiner := *swim
		joiner.Join = s.topo.Nodes[0]
		all, mem, swim = nil, s.topo.static(nil), &joiner
	}
	return func() env.Handler {
		n, h := s.topo.build(nid, all, mem, swim, wal)
		s.Nodes[nid] = n
		return h
	}, nil
}

// Close closes the journals of the current incarnations.
func (s *Sim) Close() {
	for _, n := range s.Nodes {
		if w := n.Journal(); w != nil {
			w.Close()
		}
	}
}
