// Package tracing is the causal tracing layer: sampled per-op trace
// contexts minted at write inject, carried inside wire messages, and
// recorded as span events in a bounded ring-buffer journal on every node
// the op touches. Tracing answers "why did THIS write take 900ms to
// become visible on n3", not "what was the p95".
//
// Design constraints, in order:
//
//   - Near-zero cost when unsampled. The unsampled path is a nil check
//     plus a zero check on the context — no atomics, no allocation, no
//     time lookup: callers hand over their Clock, and it is read only when
//     an event is recorded. Protocol code therefore instruments
//     unconditionally.
//   - Deterministic under simnet virtual time. Sampling is a per-node
//     write counter (never env.Rand — a stray Rand draw would shift every
//     subsequent random choice and change the event schedule), trace and
//     span IDs derive from the node ID plus a sequence, and event
//     timestamps are read from the caller's env (virtual time under
//     simnet). Two runs of the same seeded cluster produce byte-identical
//     journal dumps.
//   - Concurrency-safe on the live runtime. Span events arrive from every
//     shard executor and append under the journal's one mutex, which only
//     sampled events take (about 1% of ops at production sampling).
package tracing

import (
	"sync/atomic"
	"time"

	"idea/internal/id"
	"idea/internal/telemetry"
)

// Span event names. One vocabulary across every layer so the merge tool
// and the README inventory stay honest. The causal chain of a sampled
// write reads: inject → wal.append → digest.out → digest.recv →
// detect.start → detect.peer → detect.reply → detect.verdict →
// resolve.start → resolve.cfa → resolve.collect → resolve.inform →
// apply → resolve.verdict.
const (
	EvInject        = "inject"          // write issued on the origin node
	EvWAL           = "wal.append"      // update appended to the replica log / WAL
	EvDigestOut     = "digest.out"      // gossip digest carrying this file left the node
	EvDigestRecv    = "digest.recv"     // gossip digest arrived on a peer
	EvReportOut     = "report.out"      // bottom-layer conflict report sent to origin
	EvReportRecv    = "report.recv"     // conflict report heard by the origin
	EvDetectStart   = "detect.start"    // top-layer probe fan-out began
	EvDetectPeer    = "detect.peer"     // probe handled on a top-layer peer
	EvDetectReply   = "detect.reply"    // peer's reply aggregated on the writer
	EvDetectVerdict = "detect.verdict"  // probe finalized; arg = level in millis
	EvResolveStart  = "resolve.start"   // resolution session opened (arg 1 = active)
	EvResolveCFA    = "resolve.cfa"     // call-for-attention handled on a member
	EvCollect       = "resolve.collect" // collect visit handled on a member
	EvInform        = "resolve.inform"  // inform (winner image) handled on a member
	EvApply         = "apply"           // a sampled update became visible here; arg = seq
	EvVerdict       = "resolve.verdict" // session finished; arg 1 = active
)

// Context is the causal context piggybacked through wire messages: which
// trace the message belongs to and which span caused it. The zero Context
// is "unsampled" and costs nothing to carry or test.
type Context struct {
	Trace uint64 // trace ID; 0 = unsampled
	Span  uint64 // span that emitted the message (parent for the receiver)
}

// Sampled reports whether the context belongs to a sampled trace.
func (c Context) Sampled() bool { return c.Trace != 0 }

// Event is one span event in a node's journal. At is nanoseconds since
// the Unix epoch in the recording node's clock — virtual time under
// simnet, wall time on a live node; the merge tool skew-adjusts the
// latter. Seq is the journal-local append order, the deterministic
// tie-break for equal timestamps.
type Event struct {
	Seq    uint64    `json:"seq"`
	At     int64     `json:"at"`
	Trace  uint64    `json:"trace"`
	Span   uint64    `json:"span"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	File   id.FileID `json:"file,omitempty"`
	Peer   id.NodeID `json:"peer,omitempty"`
	Arg    int64     `json:"arg,omitempty"`
}

// Config sizes a node's tracer. The zero value disables tracing.
type Config struct {
	// SampleEvery samples one write in every N: 1 traces everything,
	// 100 is the canonical 1% production setting, 0 disables tracing.
	SampleEvery int
	// Buffer is the journal's capacity: the events a node retains before
	// the oldest is overwritten (default 8192).
	Buffer int
}

// Enabled reports whether the config turns tracing on.
func (c Config) Enabled() bool { return c.SampleEvery > 0 }

const defaultBuffer = 8192

// Clock is the time source an event is stamped from; protocol code passes
// its env.Env. A tracer reads it only when it records an event.
type Clock interface{ Now() time.Time }

// Journal is a node's span-event ring buffer, a Ring of one class.
type Journal = telemetry.Ring[Event]

// Tracer is a node's handle into the tracing layer: it owns the sampling
// decision, mints trace/span IDs, and appends to the node's journal. All
// methods are safe on a nil receiver, so unconfigured nodes pay only the
// nil check.
type Tracer struct {
	node   id.NodeID
	salt   uint64 // node-derived high bits for trace/span IDs
	every  int64
	writes atomic.Int64
	traces atomic.Uint64
	spans  atomic.Uint64
	j      *Journal
}

// New returns a tracer for the node, or nil when the config disables
// tracing (so the disabled path stays a single nil check).
func New(node id.NodeID, cfg Config) *Tracer {
	if !cfg.Enabled() {
		return nil
	}
	buffer := cfg.Buffer
	if buffer <= 0 {
		buffer = defaultBuffer
	}
	return &Tracer{
		node:  node,
		salt:  nodeSalt(node),
		every: int64(cfg.SampleEvery),
		j:     telemetry.NewRing(1, buffer, func(ev *Event) *uint64 { return &ev.Seq }),
	}
}

// nodeSalt derives the high bits of every ID this node mints: FNV-1a of
// the node ID, never zero. Deterministic, so seeded simnet runs mint the
// same IDs every time.
func nodeSalt(n id.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	v := uint64(n)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Journal returns the tracer's journal (nil on a nil tracer).
func (t *Tracer) Journal() *Journal {
	if t == nil {
		return nil
	}
	return t.j
}

// Node returns the node this tracer records for.
func (t *Tracer) Node() id.NodeID {
	if t == nil {
		return id.Nil
	}
	return t.node
}

// SampleEvery returns the configured sampling divisor (0 on nil).
func (t *Tracer) SampleEvery() int64 {
	if t == nil {
		return 0
	}
	return t.every
}

// StartWrite makes the sampling decision for one write and, when the
// write is sampled, mints a fresh trace and records the inject event.
// The returned context is zero for unsampled writes.
func (t *Tracer) StartWrite(c Clock, file id.FileID, arg int64) Context {
	if t == nil {
		return Context{}
	}
	if t.writes.Add(1)%t.every != 0 {
		return Context{}
	}
	tid := t.salt<<20 | (t.traces.Add(1) & (1<<20 - 1))
	ctx := Context{Trace: tid}
	return t.Event(c, ctx, EvInject, file, id.Nil, arg)
}

// Event records one span event caused by ctx and returns the context to
// propagate onward (same trace, the new event's span as parent). On a
// nil tracer or an unsampled context it records nothing and returns ctx
// unchanged without reading c — the no-op path every unsampled op takes.
func (t *Tracer) Event(c Clock, ctx Context, name string, file id.FileID, peer id.NodeID, arg int64) Context {
	if t == nil || ctx.Trace == 0 {
		return ctx
	}
	span := t.salt ^ t.spans.Add(1)
	t.j.Append(0, Event{
		At:     c.Now().UnixNano(),
		Trace:  ctx.Trace,
		Span:   span,
		Parent: ctx.Span,
		Name:   name,
		File:   file,
		Peer:   peer,
		Arg:    arg,
	})
	return Context{Trace: ctx.Trace, Span: span}
}
