// Package simnet is a deterministic discrete-event network emulator: the
// repository's stand-in for the paper's PlanetLab deployment. Nodes run
// event-driven protocol handlers under virtual time; message latencies are
// drawn from pluggable WAN models; clock skew, loss, and partitions can be
// injected; and every send is charged to byte-accurate overhead counters
// (see Stats). Receivers get the very value that was sent, so a message
// must never be mutated after Send.
//
// A "200-second" experiment executes in milliseconds and replays
// bit-for-bit from its seed, which is what lets the benchmark suite
// regenerate every figure of the paper on a laptop.
//
// Sharded handlers (env.Sharded) are emulated deterministically: the
// cluster stays single-goroutine, but every event is tagged with the
// serialization domain the handler's routing assigns it, and events due
// at the same virtual instant are interleaved across shards by a seeded
// stable tie-break (per-shard FIFO order is always preserved). Runs
// therefore model the reordering a parallel sharded runtime exhibits
// while replaying bit-for-bit from their seed — with single-shard
// handlers the schedule is byte-identical to the historical one.
package simnet

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	// Seed drives every random draw (latency, skew, node RNGs).
	Seed int64
	// Latency is the one-way delay model; nil means the WAN default.
	Latency LatencyModel
	// MaxSkew bounds per-node clock skew, drawn uniformly from
	// [-MaxSkew, +MaxSkew]. The paper assumes NTP keeps skew within
	// seconds; zero disables skew.
	MaxSkew time.Duration
	// Loss is the probability a message is silently dropped.
	Loss float64
	// EventTrace, when non-nil, receives one line per dispatched event
	// (virtual time, node, shard, kind) — the byte-comparable schedule
	// record the determinism regression tests diff across runs.
	EventTrace io.Writer
}

// epoch is the wall-clock origin of virtual time: the paper's issue date.
var epoch = time.Date(2007, 1, 4, 0, 0, 0, 0, time.UTC)

// Cluster is a set of simulated nodes sharing one virtual clock and event
// queue. It is not safe for concurrent use; experiments drive it from a
// single goroutine.
type Cluster struct {
	cfg    Config
	rng    *rand.Rand
	now    time.Duration
	seq    uint64
	nodes  map[id.NodeID]*node
	order  []id.NodeID
	queue  eventQueue
	free   []*event // popped events, zeroed, for push to reuse
	stats  *Stats
	cut    map[[2]id.NodeID]bool
	events int
	// gen counts how many times each node has (re)started, salting the
	// restarted node's RNG seed so a fresh incarnation does not replay
	// its predecessor's random choices (still fully deterministic).
	gen map[id.NodeID]int
	// shardRank is a seeded permutation of shard indices: the stable
	// tie-break that interleaves same-instant events of different shards
	// deterministically. Rank ties (same shard, or single-shard nodes)
	// fall back to arrival order, so legacy schedules are unchanged.
	shardRank [64]uint8
}

type node struct {
	c      *Cluster
	id     id.NodeID
	h      env.Handler
	sh     env.Sharded // nil for plain (single-domain) handlers
	shards int
	skew   time.Duration
	rng    *rand.Rand
	gen    int // incarnation (bumped by churn restarts)
}

// shardOfMsg returns the serialization domain an inbound message runs in.
func (n *node) shardOfMsg(msg env.Message) int {
	if n.sh == nil {
		return 0
	}
	return env.ClampShard(n.sh.ShardOfMessage(msg), n.shards)
}

// shardOfTimer returns the serialization domain a timer callback runs in.
func (n *node) shardOfTimer(key string, data any) int {
	if n.sh == nil {
		return 0
	}
	return env.ClampShard(n.sh.ShardOfTimer(key, data), n.shards)
}

// sysKind labels cluster-level churn events scheduled in the same seeded
// queue as protocol traffic, so join/crash/restart interleave
// deterministically with everything else.
type sysKind int

const (
	sysNone  sysKind = iota
	sysAdd           // node (re)starts: construct handler, call Start
	sysCrash         // node fails: removed from the cluster, events dropped
)

type event struct {
	at    time.Duration
	seq   uint64
	node  id.NodeID
	shard int   // serialization domain at the destination node
	rank  uint8 // seeded tie-break rank of the shard (set by push)
	// Exactly one of the following is set.
	msg  env.Message // message delivery (with from)
	from id.NodeID
	key  string // timer (with data)
	data any
	tmr  bool
	gen  int           // timers: arming incarnation (die with it)
	call func(env.Env) // injected call
	sys  sysKind       // churn event (with mk for sysAdd)
	mk   func() env.Handler
}

// eventQueue is a binary min-heap of events by (at, rank, seq). seq is
// unique, so the key is a total order and the pop sequence is the sorted
// one whatever the heap's shape.
type eventQueue []*event

// before reports whether a is due before b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e *event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event; q must not be empty.
func (q *eventQueue) pop() *event {
	h := *q
	top, n := h[0], len(h)-1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// New creates an empty cluster.
func New(cfg Config) *Cluster {
	if cfg.Latency == nil {
		cfg.Latency = WAN{}
	}
	c := &Cluster{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		nodes: make(map[id.NodeID]*node),
		stats: NewStats(),
		cut:   make(map[[2]id.NodeID]bool),
		gen:   make(map[id.NodeID]int),
	}
	// Seeded shard interleaving: a fixed permutation of ranks drawn from
	// the cluster seed. Same seed ⇒ same schedule, different seed ⇒
	// different (but still per-shard-FIFO) interleaving.
	perm := rand.New(rand.NewSource(cfg.Seed ^ 0x5bd1e995)).Perm(len(c.shardRank))
	for i, p := range perm {
		c.shardRank[i] = uint8(p)
	}
	return c
}

// Add registers a node with its protocol handler. Nodes must be added
// before Start.
func (c *Cluster) Add(n id.NodeID, h env.Handler) {
	if _, dup := c.nodes[n]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %v", n))
	}
	var skew time.Duration
	if c.cfg.MaxSkew > 0 {
		skew = time.Duration(c.rng.Int63n(int64(2*c.cfg.MaxSkew))) - c.cfg.MaxSkew
	}
	nd := &node{
		c:      c,
		id:     n,
		h:      h,
		shards: 1,
		skew:   skew,
		rng:    rand.New(rand.NewSource(c.cfg.Seed ^ (int64(n)*0x9e3779b97f4a7c + 1))),
	}
	if sh, ok := h.(env.Sharded); ok && sh.Shards() > 1 {
		nd.sh, nd.shards = sh, sh.Shards()
	}
	c.nodes[n] = nd
	c.order = append(c.order, n)
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
}

// Nodes returns the node IDs in ascending order.
func (c *Cluster) Nodes() []id.NodeID { return append([]id.NodeID(nil), c.order...) }

// Stats returns the overhead counters.
func (c *Cluster) Stats() *Stats { return c.stats }

// Elapsed returns virtual time since the cluster epoch.
func (c *Cluster) Elapsed() time.Duration { return c.now }

// VirtualNow returns the cluster-global wall clock (no skew).
func (c *Cluster) VirtualNow() time.Time { return epoch.Add(c.now) }

// Events returns how many events have been processed.
func (c *Cluster) Events() int { return c.events }

// Start invokes every handler's Start callback in node-ID order.
func (c *Cluster) Start() {
	for _, nid := range c.order {
		n := c.nodes[nid]
		n.h.Start(n)
	}
}

// Partition cuts both directions between a and b.
func (c *Cluster) Partition(a, b id.NodeID) {
	c.cut[[2]id.NodeID{a, b}] = true
	c.cut[[2]id.NodeID{b, a}] = true
}

// Heal restores both directions between a and b.
func (c *Cluster) Heal(a, b id.NodeID) {
	delete(c.cut, [2]id.NodeID{a, b})
	delete(c.cut, [2]id.NodeID{b, a})
}

// CallAt schedules fn to run in node nid's context at virtual time at
// (measured from the epoch). Experiment workloads use it to inject writes
// and user actions with the same serialization guarantee handlers enjoy.
// The call runs in shard 0 — the node-global domain; use CallAtFile to
// drive per-file operations on a sharded handler.
func (c *Cluster) CallAt(at time.Duration, nid id.NodeID, fn func(env.Env)) {
	if at < c.now {
		at = c.now
	}
	c.push(event{at: at, node: nid, call: fn})
}

// CallAtFile schedules fn in the serialization domain owning file on node
// nid — the injection point for writes and user actions against one file
// of a sharded handler (the emulated analogue of transport.InjectFile).
func (c *Cluster) CallAtFile(at time.Duration, nid id.NodeID, file id.FileID, fn func(env.Env)) {
	if at < c.now {
		at = c.now
	}
	shard := 0
	if n, ok := c.nodes[nid]; ok && n.sh != nil {
		shard = env.ClampShard(n.sh.ShardOfFile(file), n.shards)
	}
	c.push(event{at: at, node: nid, shard: shard, call: fn})
}

// Env returns the env of node nid for direct synchronous use by test
// drivers between Run calls. Protocol code must not retain it.
func (c *Cluster) Env(nid id.NodeID) env.Env { return c.nodes[nid] }

// ---- deterministic churn ----

// AddAt schedules node nid to (re)start at virtual time at: mk constructs
// the handler inside the event (so a restarted node gets fresh protocol
// state), the node joins the cluster, and its Start callback runs. The
// event sits in the same seeded queue as all traffic, so churn schedules
// replay bit-for-bit from the cluster seed. Re-adding a live node
// replaces its handler (a crash-free in-place restart).
func (c *Cluster) AddAt(at time.Duration, nid id.NodeID, mk func() env.Handler) {
	if at < c.now {
		at = c.now
	}
	c.push(event{at: at, node: nid, sys: sysAdd, mk: mk})
}

// CrashAt schedules node nid to fail at virtual time at: it vanishes from
// the cluster, every event addressed to it — in-flight messages, its own
// timers — is silently dropped, and peers only learn through their
// failure detectors. Restart it later with AddAt.
func (c *Cluster) CrashAt(at time.Duration, nid id.NodeID) {
	if at < c.now {
		at = c.now
	}
	c.push(event{at: at, node: nid, sys: sysCrash})
}

// runSys executes a churn event.
func (c *Cluster) runSys(e *event) {
	switch e.sys {
	case sysCrash:
		delete(c.nodes, e.node)
	case sysAdd:
		var skew time.Duration
		if c.cfg.MaxSkew > 0 {
			skew = time.Duration(c.rng.Int63n(int64(2*c.cfg.MaxSkew))) - c.cfg.MaxSkew
		}
		c.gen[e.node]++
		h := e.mk()
		nd := &node{
			c:      c,
			id:     e.node,
			h:      h,
			shards: 1,
			skew:   skew,
			gen:    c.gen[e.node],
			rng: rand.New(rand.NewSource(c.cfg.Seed ^
				(int64(e.node)*0x9e3779b97f4a7c + 1 + int64(c.gen[e.node])*0x1000193))),
		}
		if sh, ok := h.(env.Sharded); ok && sh.Shards() > 1 {
			nd.sh, nd.shards = sh, sh.Shards()
		}
		c.nodes[e.node] = nd
		if !containsID(c.order, e.node) {
			c.order = append(c.order, e.node)
			sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })
		}
		nd.h.Start(nd)
	}
}

func containsID(ns []id.NodeID, x id.NodeID) bool {
	for _, n := range ns {
		if n == x {
			return true
		}
	}
	return false
}

// push queues a copy of e, in an event Step has freed when there is one.
func (c *Cluster) push(e event) {
	c.seq++
	e.seq = c.seq
	e.rank = c.shardRank[e.shard%len(c.shardRank)]
	var p *event
	if n := len(c.free); n > 0 {
		p = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		p = new(event)
	}
	*p = e
	c.queue.push(p)
}

// Step processes the next event; it reports false when the queue is empty.
// Once the event is handled it is zeroed and freed for push to reuse: no
// event outlives its Step.
func (c *Cluster) Step() bool {
	if len(c.queue) == 0 {
		return false
	}
	e := c.queue.pop()
	defer c.recycle(e)
	if e.at > c.now {
		c.now = e.at
	}
	if e.sys != sysNone {
		c.events++
		if w := c.cfg.EventTrace; w != nil {
			kind := "crash"
			if e.sys == sysAdd {
				kind = "add"
			}
			fmt.Fprintf(w, "%d %v sys %s\n", e.at.Nanoseconds(), e.node, kind)
		}
		c.runSys(e)
		return true
	}
	n, ok := c.nodes[e.node]
	if !ok {
		return true // node removed (crashed); drop silently
	}
	if e.tmr && e.gen != n.gen {
		// A timer armed by a previous incarnation of a restarted node:
		// it died with its owner (messages, by contrast, deliver across
		// restarts like in-flight packets to a rebound port). Without
		// this, every self-re-arming loop — probe rounds, gossip rounds
		// — would run doubled after an in-place restart.
		return true
	}
	c.events++
	if w := c.cfg.EventTrace; w != nil {
		switch {
		case e.call != nil:
			fmt.Fprintf(w, "%d %v s%d call\n", e.at.Nanoseconds(), e.node, e.shard)
		case e.tmr:
			fmt.Fprintf(w, "%d %v s%d timer %s\n", e.at.Nanoseconds(), e.node, e.shard, e.key)
		default:
			fmt.Fprintf(w, "%d %v s%d recv %s from %v\n", e.at.Nanoseconds(), e.node, e.shard, e.msg.Kind(), e.from)
		}
	}
	switch {
	case e.call != nil:
		e.call(n)
	case e.tmr:
		n.h.Timer(n, e.key, e.data)
	default:
		n.h.Recv(n, e.from, e.msg)
	}
	return true
}

// recycle zeroes a handled event, dropping what it referenced, and frees
// it for push to reuse.
func (c *Cluster) recycle(e *event) {
	*e = event{}
	c.free = append(c.free, e)
}

// RunFor advances virtual time by d, processing every event due in the
// window, then sets the clock to exactly the window end.
func (c *Cluster) RunFor(d time.Duration) { c.RunUntil(c.now + d) }

// RunUntil advances virtual time to t (from the epoch).
func (c *Cluster) RunUntil(t time.Duration) {
	for len(c.queue) > 0 && c.queue[0].at <= t {
		c.Step()
	}
	if t > c.now {
		c.now = t
	}
}

// RunUntilIdle drains the event queue completely (useful after the last
// workload injection; beware of self-rearming periodic timers).
func (c *Cluster) RunUntilIdle(maxEvents int) {
	for i := 0; i < maxEvents && c.Step(); i++ {
	}
}

// ---- env.Env implementation ----

// ID implements env.Env.
func (n *node) ID() id.NodeID { return n.id }

// Now implements env.Env: virtual wall time plus this node's skew.
func (n *node) Now() time.Time { return epoch.Add(n.c.now + n.skew) }

// Stamp implements env.Env.
func (n *node) Stamp() vv.Stamp { return vv.Stamp(n.Now().UnixNano()) }

// Rand implements env.Env.
func (n *node) Rand() *rand.Rand { return n.rng }

// Send implements env.Env.
func (n *node) Send(to id.NodeID, msg env.Message) {
	c := n.c
	if _, ok := c.nodes[to]; !ok {
		return // unknown destination: blackhole, like the real network
	}
	c.stats.record(wire.Envelope{From: n.id, To: to, Msg: msg})
	if c.cut[[2]id.NodeID{n.id, to}] {
		c.stats.drop()
		return
	}
	if c.cfg.Loss > 0 && c.rng.Float64() < c.cfg.Loss {
		c.stats.drop()
		return
	}
	lat := c.cfg.Latency.Latency(c.rng, n.id, to)
	if to == n.id {
		lat = 10 * time.Microsecond // loopback
	}
	at := c.now + lat
	if mm, ok := msg.(env.Multi); ok {
		// One frame on the wire (one latency/loss draw, one stats
		// record), delivered as its constituent messages so each routes
		// to the shard owning its file — mirroring the live transport.
		for _, sub := range mm.Unbatch() {
			c.push(event{at: at, node: to, shard: c.nodes[to].shardOfMsg(sub), from: n.id, msg: sub})
		}
		return
	}
	c.push(event{at: at, node: to, shard: c.nodes[to].shardOfMsg(msg), from: n.id, msg: msg})
}

// After implements env.Env.
func (n *node) After(d time.Duration, key string, data any) {
	if d < 0 {
		d = 0
	}
	n.c.push(event{at: n.c.now + d, node: n.id, shard: n.shardOfTimer(key, data), key: key, data: data, tmr: true, gen: n.gen})
}

// Logf implements env.Env; emulated nodes do not log.
func (n *node) Logf(string, ...any) {}
