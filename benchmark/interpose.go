package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/wire"
)

// The interposer measures the layers from outside: it wraps a core.Node
// behind the env.Handler / env.Sharded seam both runtimes accept, and the
// env.Env the runtime hands to callbacks. Nothing in the program under
// test knows it is there. It forwards every call unchanged, draws no
// randomness, arms no timers and sends nothing, so a seeded simnet run is
// bit-identical with and without it (interpose_test.go checks).

// span is one timed interval at a layer boundary. Spans of one operation
// share op: "w/<file>/<writer>/<detect token>" for a write and its
// detection round, "r/<file>/<initiator>/<session token>" for a
// resolution session.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = top level (one runtime callback)
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Node   int64  `json:"node"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     string `json:"op,omitempty"`
}

// rawSpan is the in-memory form: no strings are built while the workload
// runs; op identifiers are rendered when the trace is written out.
type rawSpan struct {
	id, parent int64
	name       string // a message kind, timer key or fixed label: never built at run time
	start, end int64
	recv       bool // a Handler.Recv callback (as opposed to a timer or an injected call)
	opKind     byte // 0 none, 'w' write, 'r' resolution
	opFile     id.FileID
	opNode     id.NodeID
	opToken    int64
}

// layerOf maps a message kind or timer key to the package that owns it.
func layerOf(name string) string {
	switch {
	case name == "core.wal.sync":
		return "store"
	case name == "core.health.tick":
		return "health"
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "core"
}

// lane is the span buffer of one serialization domain (node, shard). Only
// that domain's executor appends to it, so it needs no lock.
type lane struct {
	node  id.NodeID
	shard int
	spans []rawSpan
	next  int64
}

func (l *lane) add(s rawSpan) {
	l.next++
	s.id = l.next // unique per lane; the lane index is folded in at export
	l.spans = append(l.spans, s)
}

// sendStat counts one message kind on the send side.
type sendStat struct {
	count int64
	bytes int64
}

type hopKey struct {
	from, to id.NodeID
	kind     string
	file     id.FileID
	token    int64
}

// tracer is the shared state of one traced run.
type tracer struct {
	// epoch is the wall-clock origin of every span. Spans are wall time
	// on both runtimes: under simnet a handler takes no virtual time, and
	// what it costs the host is exactly what the spans are for.
	epoch time.Time
	// live is false on simnet: hops take virtual time there, so matching
	// sends to receives would measure the latency model, not a layer.
	live bool

	mu      sync.Mutex
	lanes   []*lane
	sizer   *wire.Sizer
	sends   map[string]*sendStat
	hops    map[hopKey]int64
	hopNS   []float64
	capture map[string][]wire.Envelope // up to captureMax envelopes per kind
	informs []float64                  // updates carried per resolve.inform
}

// captureMax bounds the messages kept per kind for the layer probes.
const captureMax = 4096

func newTracer(epoch time.Time, live bool) *tracer {
	return &tracer{epoch: epoch, live: live, sizer: wire.NewSizer(), sends: make(map[string]*sendStat),
		hops: make(map[hopKey]int64), capture: make(map[string][]wire.Envelope)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newLane(node id.NodeID, shard int) *lane {
	l := &lane{node: node, shard: shard}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// tokenOf extracts the (file, token) of token-bearing protocol messages —
// the ones a send can be matched to its receive on.
func tokenOf(msg env.Message) (id.FileID, int64, bool) {
	switch m := msg.(type) {
	case wire.DetectRequest:
		return m.File, m.Token, true
	case wire.DetectReply:
		return m.File, m.Token, true
	case wire.CallForAttention:
		return m.File, m.Token, true
	case wire.CFAAck:
		return m.File, m.Token, true
	case wire.CollectRequest:
		return m.File, m.Token, true
	case wire.CollectReply:
		return m.File, m.Token, true
	case wire.Inform:
		return m.File, m.Token, true
	case wire.InformAck:
		return m.File, m.Token, true
	}
	return "", 0, false
}

// opOf names the operation a received message belongs to, from the
// receiver's point of view: requests carry the originator in from,
// replies return to the originator (self).
func opOf(self, from id.NodeID, msg env.Message) (kind byte, file id.FileID, node id.NodeID, token int64) {
	switch m := msg.(type) {
	case wire.DetectRequest:
		return 'w', m.File, from, m.Token
	case wire.DetectReply:
		return 'w', m.File, self, m.Token
	case wire.CallForAttention:
		return 'r', m.File, m.Initiator, m.Token
	case wire.CollectRequest:
		return 'r', m.File, from, m.Token
	case wire.Inform:
		return 'r', m.File, from, m.Token
	case wire.CFAAck:
		return 'r', m.File, self, m.Token
	case wire.CollectReply:
		return 'r', m.File, self, m.Token
	case wire.InformAck:
		return 'r', m.File, self, m.Token
	}
	return 0, "", 0, 0
}

// tracedHandler wraps a handler (a core.Node) behind the runtime seam.
type tracedHandler struct {
	inner env.Handler
	sh    env.Sharded
	t     *tracer
	self  id.NodeID
	lanes []*lane
	envs  []*tracedEnv // one per shard, built on first use by that shard
}

func newTracedHandler(t *tracer, self id.NodeID, inner env.Handler) *tracedHandler {
	h := &tracedHandler{inner: inner, t: t, self: self}
	h.sh, _ = inner.(env.Sharded)
	n := env.ShardCount(inner)
	h.lanes = make([]*lane, n)
	h.envs = make([]*tracedEnv, n)
	for i := range h.lanes {
		h.lanes[i] = t.newLane(self, i)
	}
	return h
}

// Shards, ShardOfFile, ShardOfMessage and ShardOfTimer forward the inner
// handler's routing unchanged, so the runtime builds the same executors
// and routes every event exactly as it would without the wrapper.
func (h *tracedHandler) Shards() int {
	if h.sh == nil {
		return 1
	}
	return h.sh.Shards()
}

func (h *tracedHandler) ShardOfFile(f id.FileID) int {
	if h.sh == nil {
		return 0
	}
	return h.sh.ShardOfFile(f)
}

func (h *tracedHandler) ShardOfMessage(msg env.Message) int {
	if h.sh == nil {
		return 0
	}
	return h.sh.ShardOfMessage(msg)
}

func (h *tracedHandler) ShardOfTimer(key string, data any) int {
	if h.sh == nil {
		return 0
	}
	return h.sh.ShardOfTimer(key, data)
}

// env returns the traced env of a shard, wrapping the runtime's env the
// first time that shard's executor shows it.
func (h *tracedHandler) env(shard int, e env.Env) *tracedEnv {
	shard = env.ClampShard(shard, len(h.envs))
	if te := h.envs[shard]; te != nil && te.Env == e {
		return te
	}
	te := &tracedEnv{Env: e, h: h, lane: h.lanes[shard]}
	h.envs[shard] = te
	return te
}

// Start implements env.Handler.
func (h *tracedHandler) Start(e env.Env) {
	te := h.env(0, e)
	t0 := h.t.now()
	h.inner.Start(te)
	te.lane.add(rawSpan{name: "core.start", start: t0, end: h.t.now()})
}

// Recv implements env.Handler.
func (h *tracedHandler) Recv(e env.Env, from id.NodeID, msg env.Message) {
	te := h.env(h.ShardOfMessage(msg), e)
	t0 := h.t.now()
	if h.t.live {
		if f, tok, ok := tokenOf(msg); ok {
			h.t.matchHop(hopKey{from, h.self, msg.Kind(), f, tok}, t0)
		}
	}
	if inf, ok := msg.(wire.Inform); ok {
		h.t.mu.Lock()
		h.t.informs = append(h.t.informs, float64(len(inf.Updates)))
		h.t.mu.Unlock()
	}
	h.inner.Recv(te, from, msg)
	s := rawSpan{name: msg.Kind(), recv: true, start: t0, end: h.t.now()}
	s.opKind, s.opFile, s.opNode, s.opToken = opOf(h.self, from, msg)
	te.lane.add(s)
}

// Timer implements env.Handler.
func (h *tracedHandler) Timer(e env.Env, key string, data any) {
	te := h.env(h.ShardOfTimer(key, data), e)
	t0 := h.t.now()
	h.inner.Timer(te, key, data)
	te.lane.add(rawSpan{name: key, start: t0, end: h.t.now()})
}

// callSpan is one injected application call (a write or a read) being
// traced: a top-level "app.inject" span — the benchmark's own bookkeeping
// inside the runtime callback — with the core.Node method as its child, so
// the driver's overhead is never charged to the system's layers. A nil
// callSpan (untraced run) is a no-op.
type callSpan struct {
	h       *tracedHandler
	lane    *lane
	id      int64
	entered int64
}

// enter opens a callSpan in file's domain and returns the env to call the
// node with. On a nil handler (untraced run) it returns e and nil.
func (h *tracedHandler) enter(e env.Env, file id.FileID) (env.Env, *callSpan) {
	if h == nil {
		return e, nil
	}
	te := h.env(h.ShardOfFile(file), e)
	te.lane.next++ // reserve the parent's ID so children can name it
	return te, &callSpan{h: h, lane: te.lane, id: te.lane.next, entered: h.t.now()}
}

// child records the core.Node call made inside the callback; token is the
// write's detection token (0 for reads).
func (c *callSpan) child(name string, start, end int64, file id.FileID, token int64) {
	if c == nil {
		return
	}
	s := rawSpan{parent: c.id, name: name, start: start, end: end}
	if token != 0 {
		s.opKind, s.opFile, s.opNode, s.opToken = 'w', file, c.h.self, token
	}
	c.lane.add(s)
}

// exit closes the callSpan.
func (c *callSpan) exit() {
	if c == nil {
		return
	}
	c.lane.spans = append(c.lane.spans, rawSpan{id: c.id, name: "app.inject", start: c.entered, end: c.h.t.now()})
}

// sent returns a copy of the per-kind send counters, so a window's traffic
// is the difference of two copies.
func (t *tracer) sent() map[string]sendStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]sendStat, len(t.sends))
	for k, st := range t.sends {
		out[k] = *st
	}
	return out
}

// matchHop closes a send→receive pair.
func (t *tracer) matchHop(k hopKey, now int64) {
	t.mu.Lock()
	if at, ok := t.hops[k]; ok {
		delete(t.hops, k)
		t.hopNS = append(t.hopNS, float64(now-at))
	}
	t.mu.Unlock()
}

// tracedEnv wraps the runtime's env: everything forwards through the
// embedded Env; Send additionally counts the message.
type tracedEnv struct {
	env.Env
	h    *tracedHandler
	lane *lane
}

// Send implements env.Env.
func (te *tracedEnv) Send(to id.NodeID, msg env.Message) {
	t := te.h.t
	kind := msg.Kind()
	envl := wire.Envelope{From: te.h.self, To: to, Msg: msg}
	size := int64(t.sizer.Size(envl))
	t.mu.Lock()
	st := t.sends[kind]
	if st == nil {
		st = &sendStat{}
		t.sends[kind] = st
	}
	st.count++
	st.bytes += size
	if len(t.capture[kind]) < captureMax {
		t.capture[kind] = append(t.capture[kind], envl)
	}
	if t.live {
		if f, tok, ok := tokenOf(msg); ok {
			t.hops[hopKey{te.h.self, to, kind, f, tok}] = t.now()
		}
	}
	t.mu.Unlock()
	te.Env.Send(to, msg)
}

// ---- aggregation ----

// layerTotals sums top-level span time per layer and collects per-name
// durations; self time of a parent is its span minus its children.
type layerTotals struct {
	busyNS      map[string]int64     // layer → Σ self time
	byName      map[string][]float64 // span name → durations (ns)
	recvByLayer map[string][]float64 // layer → durations of its Recv callbacks (ns)
	topNS       int64                // Σ top-level span time (executor busy time)
	handlers    int                  // top-level spans (runtime callbacks)
}

func (t *tracer) totals(from, to int64) layerTotals {
	out := layerTotals{busyNS: make(map[string]int64), byName: make(map[string][]float64), recvByLayer: make(map[string][]float64)}
	for _, l := range t.lanes {
		child := make(map[int64]int64) // parent id → Σ child time
		for _, s := range l.spans {
			if s.parent != 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for _, s := range l.spans {
			if s.start < from || s.start >= to {
				continue
			}
			d := s.end - s.start
			out.byName[s.name] = append(out.byName[s.name], float64(d))
			out.busyNS[layerOf(s.name)] += d - child[s.id]
			if s.recv {
				out.recvByLayer[layerOf(s.name)] = append(out.recvByLayer[layerOf(s.name)], float64(d))
			}
			if s.parent == 0 {
				out.topNS += d
				out.handlers++
			}
		}
	}
	return out
}

// spanFileMax bounds the spans written to the trace file; the aggregates
// always use every span.
const spanFileMax = 200000

// writeSpans renders the in-memory spans to path as JSON.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	total := 0
	for _, l := range t.lanes {
		total += len(l.spans)
	}
	var out []span
	for li, l := range t.lanes {
		base := int64(li+1) << 40
		for _, s := range l.spans {
			if len(out) >= spanFileMax {
				break
			}
			js := span{ID: base + s.id, Name: s.name, Layer: layerOf(s.name), Node: int64(l.node), Shard: l.shard, Start: s.start, End: s.end}
			if s.parent != 0 {
				js.Parent = base + s.parent
			}
			if s.opKind != 0 {
				js.Op = fmt.Sprintf("%c/%s/%d/%d", s.opKind, s.opFile, int64(s.opNode), s.opToken)
			}
			out = append(out, js)
		}
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Spans     []span `json:"spans"`
		Total     int    `json:"total_spans"`
		Truncated bool   `json:"truncated"`
	}{out, total, total > len(out)})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
