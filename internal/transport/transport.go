// Package transport is the live-network runtime for IDEA nodes: the same
// env.Handler protocol code that runs under the simulator runs here over
// real TCP connections. Frames are length-prefixed binary envelopes
// (internal/wire's codec).
//
// Handler callbacks are serialized per *serialization domain*: a plain
// handler gets one domain, a handler implementing env.Sharded one per
// shard, each with its own deterministic random source. A domain owns no
// goroutine. It is a mutex-guarded FIFO of at most Opts.ShardQueue
// events, and whoever delivers an event to an idle domain — a
// connection's read goroutine, a timer, an injector — becomes its runner
// and dispatches events in order until the queue is empty (flat
// combining; Hendler et al., SPAA 2010). A delivery to a busy domain
// appends and returns, or waits while the queue is full (backpressure
// onto readers and injectors). So a local read runs on its caller's
// goroutine and pays no channel send or goroutine wake-up.
//
//   - Handlers of one domain run one at a time, and each producer's
//     events run in the order it delivered them, so per-file ordering
//     holds: one reader delivers a peer's frames for a file, and the
//     sub-messages of an env.Multi frame, in arrival order.
//   - The runner takes the whole queue under one lock and dispatches it
//     as a batch, so producers flooding a shard contend with it once per
//     batch, not once per event.
//   - A runner's turn is bounded: once it has dispatched ShardQueue
//     events it hands the shard to a fresh goroutine, so a flood cannot
//     capture a reader or an injector. It does not hand off on every
//     contended turn: doing so after each batch raised live1-burst
//     verdict p99 from about 18 to 26 µs on 2 vCPUs.
//   - An event delivered from inside a handler into its own domain runs
//     after that handler returns, never nested.
//   - Inbound frames are decoded on the connection's read goroutine, so
//     decode work and different files' protocol work run in parallel.
//     Timers route back to the domain their key/data names; Inject runs
//     on shard 0 and InjectFile in the file's domain.
//
// Queue telemetry is sampled (1 in 64) on the producer side, under the
// shard mutex the producer holds anyway: every 64th delivery sets the
// core.shard_queue_depth.<i> gauge and stamps the event, the runner
// observes core.queue_wait for stamped events only and settles the gauge
// to 0 when the queue drains, and a producer that finds the queue full
// sets the gauge before it waits. The gauge therefore moves while a
// handler blocks, which is when the saturation detector needs it.
//
// Outbound traffic is decoupled from the handlers: every peer gets a
// bounded frame queue drained by a dedicated writer goroutine that dials
// lazily and redials with exponential backoff, so a peer that starts late
// or restarts becomes reachable as soon as it is up, and a slow peer can
// never stall the protocol (its queue fills and overflow frames are
// dropped, which the protocol's timeouts already tolerate). The data path
// is zero-copy: senders encode into pooled wire.Frames (length prefix
// stamped into the frame's headroom, no second buffer), and the writer
// gathers queued frames into one vectored net.Buffers write (writev) per
// flush window — frames are never copied into a coalescing buffer, many
// shards bursting at one peer never pay per-frame syscalls, and each
// frame returns to the encode pool the moment its batch is on the wire.
//
// Sends stay on the writer goroutines on purpose. Writing each frame from
// the handler with one non-blocking write(2), falling back to the writer
// queue, was measured and lost 0–10 % of live3-conflict ops/s on 2 vCPUs:
// the writer's writev overlaps the next handler, an inline write does not.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/vv"
	"idea/internal/wire"
)

// MaxFrame bounds a single message frame (16 MiB).
const MaxFrame = 16 << 20

// frameHeader is the length prefix size; senders reserve it as headroom
// in the pooled encode buffer so the header needs no separate write.
const frameHeader = 4

const (
	// sendQueue bounds each peer's outbound frame queue.
	sendQueue = 4096
	// defaultShardQueue bounds one shard's inbound event queue; enqueues
	// block when it fills (backpressure onto the TCP readers and
	// injectors). It is also the length of a runner's turn.
	defaultShardQueue = 1024
	// dialTimeout bounds one dial attempt.
	dialTimeout = 3 * time.Second
	// backoffMin/backoffMax bound the exponential redial backoff.
	backoffMin = 50 * time.Millisecond
	backoffMax = 3 * time.Second
	// sampleEvery is the 1-in-N sampling rate of the per-event telemetry
	// (queue-wait histogram, depth gauges). Unsampled instrumentation put
	// two clock reads and a shared histogram write on every event — a
	// measurable cross-shard serializer; uniform sampling keeps the
	// distribution honest at 1/64 of the cost.
	sampleEvery = 64
	// flushBatchBytes caps how many queued frames the peer writer
	// coalesces into one write call — the flush window of the batched
	// send path.
	flushBatchBytes = 64 << 10
	// flushBatchFrames caps the frames per coalesced write.
	flushBatchFrames = 128
)

// Opts tunes a Node's shard queues; the zero value selects the default.
// Shard queues are per serialization domain, so total inbound buffering
// scales with the shard count.
type Opts struct {
	ShardQueue int
}

func (o Opts) withDefaults() Opts {
	if o.ShardQueue <= 0 {
		o.ShardQueue = defaultShardQueue
	}
	return o
}

type eventKind int

const (
	evStart eventKind = iota
	evRecv
	evTimer
	evCall
)

type event struct {
	kind eventKind
	from id.NodeID
	msg  env.Message
	key  string
	data any
	call func(env.Env)
	enq  time.Time // when a sampled event was delivered; zero otherwise
}

// transportMetrics are the telemetry handles for the frame hot path;
// zero-value (nil) handles are no-ops.
type transportMetrics struct {
	framesOut *telemetry.Counter
	bytesOut  *telemetry.Counter
	framesIn  *telemetry.Counter
	bytesIn   *telemetry.Counter
	dropped   *telemetry.Counter   // frames dropped on a full peer queue
	connects  *telemetry.Counter   // successful outbound dials
	retries   *telemetry.Counter   // failed dial attempts
	queueWait *telemetry.Histogram // delivery→dispatch wait of sampled events
}

// Node is one live IDEA process. Create it with Listen, register peers
// with AddPeer, then call Start.
type Node struct {
	id     id.NodeID
	h      env.Handler
	sh     env.Sharded // nil for plain single-domain handlers
	ln     net.Listener
	logger *log.Logger
	opts   Opts

	shards []*shardLoop
	done   chan struct{}
	ctx    context.Context
	cancel context.CancelFunc
	closed sync.Once

	reg *telemetry.Registry
	met transportMetrics

	// onPeer observes peer-link lifecycle ("add", "remove", "up",
	// "down") for the owner's flight recorder. Set before Start, read
	// from the writer loops without a lock; nil is a no-op.
	onPeer func(event string, peer id.NodeID)

	mu    sync.Mutex
	peers map[id.NodeID]string
	links map[id.NodeID]*peerLink
	// inbound tracks accepted connections so Close can unblock their
	// read loops; without this, Close deadlocks waiting for readLoops
	// whose remote end is still open.
	inbound map[net.Conn]struct{}

	wg sync.WaitGroup
}

// shardLoop is one serialization domain: a bounded FIFO of events and the
// shard's Env (with its deterministic random source — *rand.Rand is not
// safe to share across shards). Whoever holds the running flag is the
// shard's runner, the one goroutine allowed to dispatch its events.
type shardLoop struct {
	idx   int
	env   liveEnv
	depth *telemetry.Gauge

	mu sync.Mutex
	// space signals free room to producers waiting on a full queue, and a
	// released shard to Close.
	space sync.Cond
	// q is the queue, at most Opts.ShardQueue events. The runner takes it
	// whole, one lock per batch instead of one per event, and leaves the
	// previous batch's emptied backing array in spare for producers.
	q, spare []event
	running  bool
	// seq counts deliveries; every sampleEvery-th one is stamped and sets
	// the depth gauge. dirty records that the gauge was last set nonzero,
	// so the runner settles it to 0 when the queue drains.
	seq   uint64
	dirty bool
}

// setDepth updates the depth gauge; sl.mu is held.
func (sl *shardLoop) setDepth(d int) {
	sl.depth.Set(int64(d))
	sl.dirty = d != 0
}

// peerLink is the outbound side of one peer: a bounded frame queue
// drained by a writer goroutine that owns the connection and its redial
// backoff. The current connection is also tracked under mu so Close can
// sever a writer blocked mid-write on a stalled peer.
type peerLink struct {
	nid id.NodeID
	// out carries pooled encoded frames (header headroom already
	// stamped); ownership passes to the writer goroutine, which
	// releases each frame after the vectored write that shipped it.
	out   chan *wire.Frame
	depth *telemetry.Gauge
	// done is closed when the peer is removed from the membership view:
	// the writer goroutine exits wherever it is blocked (queue wait,
	// backoff sleep, mid-write via the severed conn) instead of redialing
	// a gone peer forever.
	done chan struct{}

	mu     sync.Mutex
	c      net.Conn
	closed bool
}

// setConn records the writer's current connection; it reports false —
// closing c — when the link was already severed by Close, so a dial
// that raced past cancellation cannot outlive shutdown.
func (l *peerLink) setConn(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		if c != nil {
			c.Close()
		}
		return false
	}
	l.c = c
	return true
}

func (l *peerLink) closeConn() {
	l.mu.Lock()
	l.closed = true
	if l.c != nil {
		l.c.Close()
	}
	l.mu.Unlock()
}

// shutdown severs the link and tells its writer goroutine to exit.
func (l *peerLink) shutdown() {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	if l.c != nil {
		l.c.Close()
	}
	l.mu.Unlock()
	if !already {
		close(l.done)
	}
}

// Listen binds addr and returns a Node ready to Start with default queue
// sizing. Pass logger nil to disable debug logging.
func Listen(nid id.NodeID, addr string, h env.Handler, logger *log.Logger) (*Node, error) {
	return ListenOpts(nid, addr, h, logger, Opts{})
}

// ListenOpts is Listen with explicit queue sizing.
func ListenOpts(nid id.NodeID, addr string, h env.Handler, logger *log.Logger, opts Opts) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		id:      nid,
		h:       h,
		ln:      ln,
		logger:  logger,
		opts:    opts.withDefaults(),
		done:    make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
		peers:   make(map[id.NodeID]string),
		links:   make(map[id.NodeID]*peerLink),
		inbound: make(map[net.Conn]struct{}),
	}
	nsh := env.ShardCount(h)
	if nsh > 1 {
		n.sh = h.(env.Sharded)
	}
	seed := time.Now().UnixNano() ^ int64(nid)
	n.shards = make([]*shardLoop, nsh)
	for i := 0; i < nsh; i++ {
		sl := &shardLoop{idx: i}
		sl.space.L = &sl.mu
		sl.env = liveEnv{n: n, shard: i, rng: rand.New(rand.NewSource(seed ^ int64(i)*0x9e3779b97f4a7c))}
		n.shards[i] = sl
	}
	return n, nil
}

// NumShards returns how many serialization domains the node runs.
func (n *Node) NumShards() int { return len(n.shards) }

// shardOfMsg returns the domain owning an inbound message.
func (n *Node) shardOfMsg(msg env.Message) *shardLoop {
	if n.sh == nil {
		return n.shards[0]
	}
	return n.shards[env.ClampShard(n.sh.ShardOfMessage(msg), len(n.shards))]
}

// shardOfTimer returns the domain owning a timer callback.
func (n *Node) shardOfTimer(key string, data any) *shardLoop {
	if n.sh == nil {
		return n.shards[0]
	}
	return n.shards[env.ClampShard(n.sh.ShardOfTimer(key, data), len(n.shards))]
}

// shardOfFile returns a file's domain.
func (n *Node) shardOfFile(f id.FileID) *shardLoop {
	if n.sh == nil {
		return n.shards[0]
	}
	return n.shards[env.ClampShard(n.sh.ShardOfFile(f), len(n.shards))]
}

// enqueue delivers ev to the shard. On an idle shard the caller becomes
// the runner and dispatches ev, and whatever queues behind it, before
// returning; on a busy one it appends ev, first waiting while the queue is
// full. It reports false, dropping ev, once the node is closing.
func (n *Node) enqueue(sl *shardLoop, ev event) bool {
	sl.mu.Lock()
	sl.seq++
	sampled := sl.seq%sampleEvery == 0
	if sampled {
		ev.enq = time.Now()
	}
	for sl.running {
		if n.closing() {
			sl.mu.Unlock()
			return false
		}
		if len(sl.q) < n.opts.ShardQueue {
			sl.q = append(sl.q, ev)
			if sampled {
				sl.setDepth(len(sl.q))
			}
			sl.mu.Unlock()
			return true
		}
		sl.setDepth(len(sl.q))
		sl.space.Wait()
	}
	if n.closing() {
		sl.mu.Unlock()
		return false
	}
	sl.running = true
	sl.mu.Unlock()
	n.dispatch(sl, ev)
	n.drain(sl)
	return true
}

// drain is the rest of a runner's turn: it dispatches the shard's queued
// events in order, a whole queue per batch, until the queue is empty or
// the node is closing, and then releases the shard. Once it has run
// Opts.ShardQueue events it hands the shard, still marked running, to a
// fresh goroutine, so no caller is held for more than about two queues'
// worth of events.
func (n *Node) drain(sl *shardLoop) {
	var batch []event
	for ran := 0; ; ran += len(batch) {
		clear(batch) // drop references for the GC
		sl.mu.Lock()
		if batch != nil {
			sl.spare = batch[:0]
		}
		if len(sl.q) == 0 || n.closing() {
			clear(sl.q) // closing: queued events are dropped
			sl.q = sl.q[:0]
			sl.running = false
			if sl.dirty {
				sl.setDepth(0)
			}
			sl.space.Broadcast()
			sl.mu.Unlock()
			return
		}
		if ran >= n.opts.ShardQueue {
			sl.mu.Unlock()
			go n.drain(sl)
			return
		}
		batch, sl.q, sl.spare = sl.q, sl.spare, nil
		sl.space.Broadcast()
		sl.mu.Unlock()
		for _, ev := range batch {
			if n.closing() {
				break
			}
			n.dispatch(sl, ev)
		}
	}
}

// dispatch runs one event's handler callback.
func (n *Node) dispatch(sl *shardLoop, ev event) {
	if !ev.enq.IsZero() {
		n.met.queueWait.ObserveDuration(time.Since(ev.enq))
	}
	e := &sl.env
	switch ev.kind {
	case evStart:
		n.h.Start(e)
	case evRecv:
		n.h.Recv(e, ev.from, ev.msg)
	case evTimer:
		n.h.Timer(e, ev.key, ev.data)
	case evCall:
		ev.call(e)
	}
}

// closing reports whether Close has begun.
func (n *Node) closing() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// AttachMetrics wires the transport to a registry; call before Start.
func (n *Node) AttachMetrics(reg *telemetry.Registry) {
	n.reg = reg
	n.met = transportMetrics{
		framesOut: reg.Counter("transport.frames_sent_total"),
		bytesOut:  reg.Counter("transport.bytes_sent_total"),
		framesIn:  reg.Counter("transport.frames_received_total"),
		bytesIn:   reg.Counter("transport.bytes_received_total"),
		dropped:   reg.Counter("transport.dropped_frames_total"),
		connects:  reg.Counter("transport.connects_total"),
		retries:   reg.Counter("transport.dial_retries_total"),
		queueWait: reg.Histogram("core.queue_wait"),
	}
	for _, sl := range n.shards {
		//idealint:allow telemetryhygiene per-shard gauge family, interned once at boot
		sl.depth = reg.Gauge(fmt.Sprintf("core.shard_queue_depth.%d", sl.idx))
	}
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetPeerEventHook installs the peer-link lifecycle observer: "add" and
// "remove" for registration changes, "up" for an established connection,
// "down" for a lost one (about to redial). Call before Start.
func (n *Node) SetPeerEventHook(f func(event string, peer id.NodeID)) { n.onPeer = f }

func (n *Node) notePeer(event string, peer id.NodeID) {
	if n.onPeer != nil {
		n.onPeer(event, peer)
	}
}

// AddPeer records where a peer can be dialed. Re-adding a peer updates
// the address used on the next (re)dial.
func (n *Node) AddPeer(nid id.NodeID, addr string) {
	n.mu.Lock()
	n.peers[nid] = addr
	n.mu.Unlock()
	n.notePeer("add", nid)
}

// RemovePeer forgets a peer at runtime — the dynamic-membership eviction
// path. The redial loop stops, the send queue is torn down, and the
// peer's queue-depth gauge drops to zero; frames already queued are
// discarded (the peer is gone). Future sends to the ID fail like any
// unknown peer until AddPeer registers it again.
func (n *Node) RemovePeer(nid id.NodeID) {
	n.mu.Lock()
	delete(n.peers, nid)
	l := n.links[nid]
	delete(n.links, nid)
	n.mu.Unlock()
	if l != nil {
		l.shutdown()
	}
	n.notePeer("remove", nid)
}

// HasPeer reports whether an address is registered for nid.
func (n *Node) HasPeer(nid id.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.peers[nid]
	return ok
}

// QueueDepth returns the current outbound queue length for a peer (zero
// when no link exists yet) — exposed for tests and diagnostics; the same
// value feeds the transport.queue_depth.<id> gauge.
func (n *Node) QueueDepth(nid id.NodeID) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[nid]; ok {
		return len(l.out)
	}
	return 0
}

// Start launches the accept loop, then delivers Handler.Start on shard 0
// (on the caller's goroutine when the shard is idle, as for any delivery).
func (n *Node) Start() {
	n.wg.Add(1)
	go n.acceptLoop()
	n.enqueue(n.shards[0], event{kind: evStart})
}

// Inject runs fn in the node's shard-0 domain — the live-network analogue
// of simnet.CallAt, used by drivers for node-global actions. Per-file
// operations (writes, hints, per-file reads) must use InjectFile so they
// execute in the file's serialization domain.
//
// fn may run on the caller's goroutine before Inject returns (when the
// shard is idle), or later on another goroutine, so the caller must not
// hold a lock that fn takes; hand results back through a buffered
// channel, a close or a WaitGroup. Called from inside a handler of the
// same domain, fn runs after that handler returns, never nested. Inject
// waits while the shard's queue is full.
func (n *Node) Inject(fn func(env.Env)) {
	n.enqueue(n.shards[0], event{kind: evCall, call: fn})
}

// InjectFile runs fn in the serialization domain owning file — the
// live-network analogue of simnet.CallAtFile. It runs fn the way Inject
// does: possibly on the caller's goroutine before it returns, never
// nested in a handler of the same domain, and it waits while the shard's
// queue is full.
func (n *Node) InjectFile(file id.FileID, fn func(env.Env)) {
	n.enqueue(n.shardOfFile(file), event{kind: evCall, call: fn})
}

// Close shuts the node down and waits for its goroutines to finish and
// for every runner to leave its handler; queued events are dropped, and
// no handler runs after Close returns.
func (n *Node) Close() error {
	n.closed.Do(func() {
		close(n.done)
		n.cancel()
		n.ln.Close()
		n.mu.Lock()
		for c := range n.inbound {
			c.Close()
		}
		// Sever outbound connections too: a writer blocked mid-write
		// on a stalled peer must be unblocked or wg.Wait hangs
		// forever.
		for _, l := range n.links {
			l.closeConn()
		}
		n.mu.Unlock()
	})
	for _, sl := range n.shards {
		sl.mu.Lock()
		sl.space.Broadcast() // producers waiting for space give up
		for sl.running {
			sl.space.Wait()
		}
		sl.mu.Unlock()
	}
	n.wg.Wait()
	return nil
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
			}
			n.logf("accept: %v", err)
			return
		}
		n.mu.Lock()
		n.inbound[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

func (n *Node) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
		c.Close()
	}()
	// br batches the socket reads: a writev of many frames arrives in a
	// few read calls instead of two per frame (header, then body). rbuf
	// is this connection's reusable frame buffer. wire.Decode copies
	// every byte payload out of the frame, so the buffer can be reused
	// for the next frame immediately — steady-state reads allocate
	// nothing.
	br := bufio.NewReaderSize(c, flushBatchBytes)
	var rbuf []byte
	for {
		frame, err := readFrame(br, &rbuf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosed(err) {
				n.logf("read: %v", err)
			}
			return
		}
		envl, err := wire.Decode(frame)
		if err != nil {
			n.logf("decode: %v", err)
			return
		}
		n.met.framesIn.Inc()
		n.met.bytesIn.Add(int64(len(frame)) + 4)
		if mm, ok := envl.Msg.(env.Multi); ok {
			// One frame, many messages: each sub-message routes to the
			// shard owning its file, preserving the per-file ordering
			// contract (this reader enqueues them in send order).
			for _, sub := range mm.Unbatch() {
				if !n.enqueue(n.shardOfMsg(sub), event{kind: evRecv, from: envl.From, msg: sub}) {
					return
				}
			}
			continue
		}
		if !n.enqueue(n.shardOfMsg(envl.Msg), event{kind: evRecv, from: envl.From, msg: envl.Msg}) {
			return
		}
	}
}

// send encodes the message into a pooled frame — length prefix stamped
// into the frame's headroom, so the bytes that hit the socket are
// exactly the bytes the encoder produced — and enqueues it onto the
// peer's link. It never blocks on the network: a full queue drops the
// frame (counted, released), matching the lossy-delivery contract
// protocol code already handles.
func (n *Node) send(to id.NodeID, msg env.Message) {
	wm, ok := msg.(wire.Message)
	if !ok {
		n.logf("send: message %T is not a wire.Message", msg)
		return
	}
	f, err := wire.EncodeFrame(wire.Envelope{From: n.id, To: to, Msg: wm}, frameHeader)
	if err != nil {
		n.logf("send: %v", err)
		return
	}
	b := f.Bytes()
	payload := len(b) - frameHeader
	if payload > MaxFrame {
		f.Release()
		n.logf("send %v: %s frame of %d bytes exceeds limit", to, wm.Kind(), payload)
		return
	}
	binary.BigEndian.PutUint32(b[:frameHeader], uint32(payload))
	l, err := n.link(to)
	if err != nil {
		f.Release()
		n.logf("send %v: %v", to, err)
		return
	}
	select {
	case l.out <- f:
		// The queue-depth gauge is maintained by the draining writer
		// (sampled); senders from different shards must not serialize
		// on it.
	default:
		f.Release()
		n.met.dropped.Inc()
		n.logf("send %v: queue full, dropping %s", to, wm.Kind())
	}
}

// link returns (creating on first use) the outbound link for a peer and
// launches its writer goroutine.
func (n *Node) link(to id.NodeID) (*peerLink, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l, ok := n.links[to]; ok {
		return l, nil
	}
	if _, ok := n.peers[to]; !ok {
		return nil, fmt.Errorf("transport: unknown peer %v", to)
	}
	l := &peerLink{
		nid: to,
		out: make(chan *wire.Frame, sendQueue),
		//idealint:allow telemetryhygiene per-peer gauge interned once at link creation
		depth: n.reg.Gauge(fmt.Sprintf("transport.queue_depth.%v", to)),
		done:  make(chan struct{}),
	}
	n.links[to] = l
	n.wg.Add(1)
	go n.writerLoop(l)
	return l, nil
}

func (n *Node) peerAddr(nid id.NodeID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr, ok := n.peers[nid]
	return addr, ok
}

// writerLoop owns one peer's connection: it dials on demand, redials
// with exponential backoff (jittered, capped), and drains the frame
// queue in coalesced batches — one blocking dequeue, then every frame
// already queued (up to the flush window) is gathered into a single
// vectored net.Buffers write. The kernel scatter-gathers the pooled
// frame buffers directly (writev): frames are never copied into a
// second coalescing buffer, N shards fanning frames at one peer cost
// one syscall per flush window instead of two per frame, and each frame
// returns to the encode pool once its batch is confirmed written.
// Frames that fail mid-write are retried on the next connection rather
// than lost; a reconnect may duplicate the tail of a partially written
// batch, which the protocol's per-writer sequence dedup already absorbs.
func (n *Node) writerLoop(l *peerLink) {
	defer n.wg.Done()
	var c net.Conn
	var batch []*wire.Frame // dequeued frames not yet confirmed written
	var vec net.Buffers     // reusable iovec over the batch's buffers
	var sends uint64        // flush counter for sampled depth-gauge updates
	backoff := backoffMin
	defer func() {
		if c != nil {
			c.Close()
		}
		l.setConn(nil)
		// A removed peer's gauge must not freeze at its last depth.
		l.depth.Set(0)
		// Return in-flight and queued frames to the encode pool; late
		// senders racing the shutdown lose their frames to the GC,
		// which is harmless.
		for _, f := range batch {
			f.Release()
		}
		for {
			select {
			case f := <-l.out:
				f.Release()
			default:
				return
			}
		}
	}()
	for {
		if c == nil {
			addr, ok := n.peerAddr(l.nid)
			if !ok {
				return // peer removed (or defensive: link without address)
			}
			dctx, dcancel := context.WithTimeout(n.ctx, dialTimeout)
			var d net.Dialer
			cc, err := d.DialContext(dctx, "tcp", addr)
			dcancel()
			if err != nil {
				select {
				case <-n.done:
					return
				case <-l.done:
					return
				default:
				}
				n.met.retries.Inc()
				n.logf("dial %v: %v (retry in %v)", l.nid, err, backoff)
				select {
				case <-time.After(jitter(backoff)):
				case <-n.done:
					return
				case <-l.done:
					return
				}
				backoff *= 2
				if backoff > backoffMax {
					backoff = backoffMax
				}
				continue
			}
			if !l.setConn(cc) {
				return // node closed or peer removed while dialing
			}
			c = cc
			backoff = backoffMin
			n.met.connects.Inc()
			n.notePeer("up", l.nid)
		}
		if len(batch) == 0 {
			var first *wire.Frame
			select {
			case first = <-l.out:
			case <-n.done:
				return
			case <-l.done:
				return
			}
			batch = append(batch, first)
			// Opportunistically coalesce whatever else is already
			// queued, bounded by the flush window.
			size := len(first.Bytes())
			for len(batch) < flushBatchFrames && size < flushBatchBytes {
				select {
				case f := <-l.out:
					batch = append(batch, f)
					size += len(f.Bytes())
				default:
					size = flushBatchBytes // queue drained: flush now
				}
			}
		}
		// Rebuild the iovec on every attempt: WriteTo consumes it as it
		// writes, and a failed attempt must retry the whole batch.
		vec = vec[:0]
		total := int64(0)
		for _, f := range batch {
			b := f.Bytes()
			vec = append(vec, b)
			total += int64(len(b))
		}
		if _, err := vec.WriteTo(c); err != nil {
			select {
			case <-n.done:
				return
			case <-l.done:
				return
			default:
			}
			n.logf("write %v: %v (reconnecting)", l.nid, err)
			n.notePeer("down", l.nid)
			c.Close()
			c = nil
			l.setConn(nil)
			continue // redial and retry the whole batch
		}
		n.met.framesOut.Add(int64(len(batch)))
		n.met.bytesOut.Add(total)
		for i, f := range batch {
			f.Release()
			batch[i] = nil
		}
		batch = batch[:0]
		if sends%sampleEvery == 0 || len(l.out) == 0 {
			l.depth.Set(int64(len(l.out)))
		}
		sends++
		if cap(vec) > flushBatchFrames {
			vec = nil // don't pin an outsized iovec after a burst
		}
	}
}

// jitter spreads a backoff delay over [d/2, d) so peers restarting
// together do not redial in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

func (n *Node) logf(format string, args ...any) {
	if n.logger != nil {
		n.logger.Printf("%v: %s", n.id, fmt.Sprintf(format, args...))
	}
}

func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// readFrame reads one length-prefixed frame into *rbuf, growing (and
// occasionally shrinking) the caller's reusable buffer. The returned
// slice aliases *rbuf and is only valid until the next call — safe
// because wire.Decode copies everything it keeps.
func readFrame(r io.Reader, rbuf *[]byte) ([]byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	size := int(binary.BigEndian.Uint32(hdr[:]))
	if size > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	buf := *rbuf
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if cap(buf) > 4*flushBatchBytes && size <= flushBatchBytes {
		// A snapshot chunk blew the buffer up; keep the small frame and
		// let the outsized backing array go.
		*rbuf = append([]byte(nil), buf...)
		return *rbuf, nil
	}
	*rbuf = buf
	return buf, nil
}

// liveEnv implements env.Env on top of a Node. Each shard owns one and
// only the shard's runner uses it, so handler state and the Rand source
// need no locking.
type liveEnv struct {
	n     *Node
	shard int
	rng   *rand.Rand
}

// ID implements env.Env.
func (e *liveEnv) ID() id.NodeID { return e.n.id }

// Now implements env.Env.
func (e *liveEnv) Now() time.Time { return time.Now() }

// Stamp implements env.Env.
func (e *liveEnv) Stamp() vv.Stamp { return vv.Stamp(time.Now().UnixNano()) }

// Rand implements env.Env.
func (e *liveEnv) Rand() *rand.Rand { return e.rng }

// Send implements env.Env; it encodes on the caller's goroutine and
// enqueues onto the peer's writer, never blocking on the network.
func (e *liveEnv) Send(to id.NodeID, msg env.Message) { e.n.send(to, msg) }

// After implements env.Env using a real timer whose goroutine delivers
// the callback to the owning shard (routed by the handler's timer
// routing, so a timer armed from anywhere still fires in the right
// domain).
func (e *liveEnv) After(d time.Duration, key string, data any) {
	n := e.n
	time.AfterFunc(d, func() {
		n.enqueue(n.shardOfTimer(key, data), event{kind: evTimer, key: key, data: data})
	})
}

// Logf implements env.Env.
func (e *liveEnv) Logf(format string, args ...any) { e.n.logf(format, args...) }
