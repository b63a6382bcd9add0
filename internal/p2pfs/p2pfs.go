// Package p2pfs demonstrates the §7.3 claim that "IDEA can work perfectly
// with these replication-based systems": a small peer-to-peer replicated
// file system in the CFS/PAST mould — consistent hashing places each
// file's replicas on k successor nodes of its hash — with IDEA attached
// as its consistency control. The replica set doubles as the file's top
// layer, so detection and resolution run among exactly the nodes that
// store the file, while the gossip bottom layer still spans everyone.
package p2pfs

import (
	"fmt"
	"hash/fnv"
	"sort"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/simnet"
	"idea/internal/wire"
)

// Ring is a consistent-hashing ring over the node set, with virtual nodes
// for balance.
type Ring struct {
	points []point
	nodes  []id.NodeID
}

type point struct {
	hash uint64
	node id.NodeID
}

// NewRing builds a ring with vnodes virtual points per node (0 means 16).
func NewRing(nodes []id.NodeID, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 16
	}
	r := &Ring{nodes: append([]id.NodeID(nil), nodes...)}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i] < r.nodes[j] })
	for _, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%d/%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// FNV of short, similar keys clusters on the ring; a splitmix64
	// finalizer spreads the points uniformly.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ReplicaSet returns the k distinct nodes succeeding the file's hash —
// the file's storage replicas and, under IDEA, its top layer.
func (r *Ring) ReplicaSet(file id.FileID, k int) []id.NodeID {
	if k > len(r.nodes) {
		k = len(r.nodes)
	}
	if len(r.points) == 0 || k == 0 {
		return nil
	}
	h := hash64(string(file))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[id.NodeID]bool, k)
	out := make([]id.NodeID, 0, k)
	for off := 0; len(out) < k && off < len(r.points); off++ {
		p := r.points[(i+off)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Membership adapts the ring to IDEA's two-layer view: every file's top
// layer is its replica set; the bottom layer is the whole ring.
type Membership struct {
	Ring *Ring
	K    int
}

// All implements overlay.Membership.
func (m Membership) All() []id.NodeID { return append([]id.NodeID(nil), m.Ring.nodes...) }

// Top implements overlay.Membership.
func (m Membership) Top(file id.FileID) []id.NodeID { return m.Ring.ReplicaSet(file, m.K) }

// IsTop implements overlay.Membership.
func (m Membership) IsTop(file id.FileID, n id.NodeID) bool {
	for _, r := range m.Top(file) {
		if r == n {
			return true
		}
	}
	return false
}

var _ overlay.Membership = Membership{}

// ReadResult is a completed remote read.
type ReadResult struct {
	File    id.FileID
	Updates []wire.Update
	Level   float64
}

// FS is one node of the P2P file system: an IDEA node plus request
// routing. It implements env.Handler; FS messages are consumed here and
// everything else flows into the IDEA node.
type FS struct {
	self id.NodeID
	mem  Membership
	node *core.Node

	nextToken int64
	// OnWriteAck fires when a routed write is acknowledged.
	OnWriteAck func(e env.Env, file id.FileID, key string)
	// OnRead fires when a remote read returns.
	OnRead func(e env.Env, r ReadResult)

	// RoutedWrites counts writes this node forwarded to a replica.
	RoutedWrites int
	// ServedWrites counts writes this node applied as a replica.
	ServedWrites int
}

// NewCluster builds and starts an emulated file system: one FS node per
// ring member over a simulator configured by net, k replicas per file.
// The ring defines every top layer, so RanSub is off; so is the gossip
// bottom layer, as in the paper's evaluation (§6).
func NewCluster(ring *Ring, k int, net simnet.Config) (*simnet.Cluster, map[id.NodeID]*FS) {
	mem := Membership{Ring: ring, K: k}
	fss := make(map[id.NodeID]*FS, len(ring.nodes))
	s, err := cluster.NewSim(cluster.Topology{
		Nodes: ring.nodes,
		Hook: func(self id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Membership = mem
			o.DisableRansub = true
			o.DisableGossip = true
			return func(n *core.Node) env.Handler {
				fss[self] = &FS{self: self, mem: mem, node: n}
				return fss[self]
			}
		},
	}, net)
	if err != nil {
		// Only opening a journal can fail, and none is configured.
		panic(err)
	}
	return s.C, fss
}

// Node exposes the underlying IDEA node.
func (f *FS) Node() *core.Node { return f.node }

// ReplicaSet returns the file's replicas.
func (f *FS) ReplicaSet(file id.FileID) []id.NodeID { return f.mem.Top(file) }

// Primary returns the file's first replica.
func (f *FS) Primary(file id.FileID) id.NodeID {
	rs := f.mem.Top(file)
	if len(rs) == 0 {
		return f.self
	}
	return rs[0]
}

// Write stores an update for file: applied locally when this node is a
// replica, otherwise routed to the primary replica. The write triggers
// IDEA detection at the replica.
func (f *FS) Write(e env.Env, file id.FileID, op string, data []byte, meta float64) {
	if f.mem.IsTop(file, f.self) {
		f.ServedWrites++
		f.node.Write(e, file, op, data, meta)
		return
	}
	f.nextToken++
	f.RoutedWrites++
	e.Send(f.Primary(file), wire.FSWrite{File: file, Token: f.nextToken, Op: op, Data: data, Meta: meta})
}

// Read fetches the file: local log when this node is a replica, otherwise
// an async remote read answered via OnRead.
func (f *FS) Read(e env.Env, file id.FileID) ([]wire.Update, bool) {
	if f.mem.IsTop(file, f.self) {
		return f.node.Read(file), true
	}
	f.nextToken++
	e.Send(f.Primary(file), wire.FSRead{File: file, Token: f.nextToken})
	return nil, false
}

// Start implements env.Handler.
func (f *FS) Start(e env.Env) { f.node.Start(e) }

// Timer implements env.Handler.
func (f *FS) Timer(e env.Env, key string, data any) { f.node.Timer(e, key, data) }

// Recv implements env.Handler.
func (f *FS) Recv(e env.Env, from id.NodeID, msg env.Message) {
	switch m := msg.(type) {
	case wire.FSWrite:
		if !f.mem.IsTop(m.File, f.self) {
			// Mis-routed (e.g. stale ring view): forward to the
			// true primary.
			e.Send(f.Primary(m.File), m)
			return
		}
		f.ServedWrites++
		u := f.node.Write(e, m.File, m.Op, m.Data, m.Meta)
		e.Send(from, wire.FSWriteAck{File: m.File, Token: m.Token, Key: u.Key()})
	case wire.FSWriteAck:
		if f.OnWriteAck != nil {
			f.OnWriteAck(e, m.File, m.Key)
		}
	case wire.FSRead:
		rep := f.node.Read(m.File)
		e.Send(from, wire.FSReadReply{File: m.File, Token: m.Token, Updates: rep, Level: f.node.Level(m.File)})
	case wire.FSReadReply:
		if f.OnRead != nil {
			f.OnRead(e, ReadResult{File: m.File, Updates: m.Updates, Level: m.Level})
		}
	default:
		f.node.Recv(e, from, msg)
	}
}
