// Package env defines the node runtime interface that all IDEA protocol
// code is written against. Two runtimes implement it:
//
//   - internal/simnet: a deterministic discrete-event emulator with virtual
//     time and WAN latency models (our PlanetLab substitute), and
//   - internal/transport: a real TCP runtime for live clusters.
//
// # Serialization domains
//
// Protocol code is lock-free because the runtime serializes its callbacks.
// Historically the serialization domain was the whole node: one event loop
// per node, so a node could never use more than one core no matter how
// many independent files it served. Since IDEA keeps all consistency state
// per shared file, the contract now admits a finer domain: a handler may
// implement the optional Sharded interface to partition its callbacks into
// N per-file shards, keyed by FileID hash.
//
// The invariant protocol code relies on is unchanged in shape, only in
// scope: callbacks within one serialization domain (one shard) are never
// invoked concurrently. Callbacks in different shards of the same node MAY
// run concurrently, so any state shared across shards — membership views,
// the replica-store map itself, metrics — must be independently safe; all
// per-file state (replicas, probes, sessions, digests, controllers) stays
// lock-free because everything touching one file routes to one shard.
//
// Routing rules a sharded handler implements (see Sharded):
//
//   - messages route by the file they concern (every IDEA protocol message
//     carries a FileID); node-global traffic — the RanSub overlay waves,
//     membership, admin — routes to shard 0;
//   - timers route by a FileID carried in the timer's key or data, or by
//     an explicit shard label; unkeyed timers fire on shard 0;
//   - Handler.Start runs on shard 0; per-shard boot work is fanned out by
//     the handler itself via zero-delay shard-labelled timers.
//
// A handler that does not implement Sharded (tests, baselines, wrappers)
// gets the classic one-domain-per-node behaviour on every runtime.
package env

import (
	"math/rand"
	"time"

	"idea/internal/id"
	"idea/internal/vv"
)

// Env is the runtime a node handler uses to observe time, send messages,
// and arm timers. All methods must be called from within a handler
// callback; the Env value (including its Rand source) belongs to the
// serialization domain the callback runs in and must not be retained or
// shared across domains.
type Env interface {
	// ID returns this node's identifier.
	ID() id.NodeID
	// Now returns the node-local wall clock, including any simulated
	// clock skew (the paper assumes NTP keeps skew within seconds).
	Now() time.Time
	// Stamp returns Now as a version-vector timestamp.
	Stamp() vv.Stamp
	// Send transmits a message to another node. Delivery is
	// asynchronous and may be delayed, reordered across pairs, or (in
	// lossy configurations) dropped.
	Send(to id.NodeID, msg Message)
	// After arms a one-shot timer that fires Handler.Timer(key, data)
	// after d of node-local time. On a sharded runtime the callback is
	// routed by Sharded.ShardOfTimer, so the key/data must identify the
	// owning domain (a FileID or shard label) for per-file timers.
	After(d time.Duration, key string, data any)
	// Rand returns this domain's deterministic random source. It is not
	// safe to share across serialization domains.
	Rand() *rand.Rand
	// Logf records a debug line tagged with the node and current time.
	Logf(format string, args ...any)
}

// Message is the transport payload; aliased here so protocol packages can
// depend on env alone.
type Message interface {
	Kind() string
}

// Handler is the node-side protocol logic. The runtime guarantees the
// three methods are invoked serially per serialization domain: per node
// for plain handlers, per shard for handlers implementing Sharded.
type Handler interface {
	// Start runs once when the node boots, before any message arrives.
	// On a sharded runtime it executes on shard 0.
	Start(e Env)
	// Recv delivers one message from a peer.
	Recv(e Env, from id.NodeID, msg Message)
	// Timer delivers a timer armed with After.
	Timer(e Env, key string, data any)
}

// Sharded is optionally implemented by Handlers that partition their state
// into independent per-file serialization domains. A runtime that sees it
// runs Shards() domains for the node and routes every callback through
// the ShardOf* methods; protocol code then runs lock-free per shard
// exactly as it used to run lock-free per node.
//
// Routing must be stable (the same message/timer always maps to the same
// shard) and node-local (no cross-node agreement is needed: a digest for
// file f routes by the receiver's own shard count). Runtimes clamp
// returned indices into [0, Shards()).
type Sharded interface {
	// Shards returns the number of serialization domains (>= 1).
	Shards() int
	// ShardOfFile returns the domain owning all state of file f.
	ShardOfFile(f id.FileID) int
	// ShardOfMessage returns the domain an inbound message executes in.
	// Node-global messages (overlay membership, admin) return 0.
	ShardOfMessage(msg Message) int
	// ShardOfTimer returns the domain a timer callback executes in,
	// derived from the key and/or data it was armed with.
	ShardOfTimer(key string, data any) int
}

// Multi is optionally implemented by messages that bundle several
// independently routable messages into one wire frame (e.g. a gossip
// round's digests to one peer). A runtime delivers the bundle as its
// constituent messages: each sub-message is routed through
// Sharded.ShardOfMessage on its own, so per-file work still executes in
// the shard owning the file while the network sees one frame. Handlers
// therefore never receive the bundle itself on the bundled runtimes;
// protocol code should still accept it defensively for single-domain
// runtimes that do not split.
type Multi interface {
	Message
	// Unbatch returns the constituent messages in send order.
	Unbatch() []Message
}

// ShardCount returns the number of serialization domains h runs under a
// shard-aware runtime: Shards() when h implements Sharded, else 1.
func ShardCount(h Handler) int {
	if s, ok := h.(Sharded); ok {
		if n := s.Shards(); n > 1 {
			return n
		}
	}
	return 1
}

// ShardOf maps a file to one of n serialization domains. Every layer that
// partitions by file — handler routing, runtime dispatch, drivers placing
// injected calls — must use this one function so they always agree.
func ShardOf(f id.FileID, n int) int {
	if n <= 1 {
		return 0
	}
	return int(f.Hash() % uint32(n))
}

// ClampShard normalizes a Sharded routing result into [0, n): out-of-range
// indices fall back to shard 0, the node-global domain. Both runtimes (and
// any future one) must clamp through this single function so a stray
// router value degrades identically everywhere instead of drifting per
// runtime.
func ClampShard(s, n int) int {
	if s < 0 || s >= n {
		return 0
	}
	return s
}

// HandlerFuncs adapts plain functions to Handler, for tests and small
// examples.
type HandlerFuncs struct {
	OnStart func(e Env)
	OnRecv  func(e Env, from id.NodeID, msg Message)
	OnTimer func(e Env, key string, data any)
}

// Start implements Handler.
func (h HandlerFuncs) Start(e Env) {
	if h.OnStart != nil {
		h.OnStart(e)
	}
}

// Recv implements Handler.
func (h HandlerFuncs) Recv(e Env, from id.NodeID, msg Message) {
	if h.OnRecv != nil {
		h.OnRecv(e, from, msg)
	}
}

// Timer implements Handler.
func (h HandlerFuncs) Timer(e Env, key string, data any) {
	if h.OnTimer != nil {
		h.OnTimer(e, key, data)
	}
}
