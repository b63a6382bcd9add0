package transport

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/vv"
	"idea/internal/wire"
)

// collector is a thread-observable handler: the event loop serializes all
// mutation; tests read under the same mutex.
type collector struct {
	mu     sync.Mutex
	msgs   []env.Message
	froms  []id.NodeID
	timers []string
	starts int
}

func (c *collector) Start(e env.Env) {
	c.mu.Lock()
	c.starts++
	c.mu.Unlock()
}
func (c *collector) Recv(e env.Env, from id.NodeID, m env.Message) {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.froms = append(c.froms, from)
	c.mu.Unlock()
}
func (c *collector) Timer(e env.Env, key string, data any) {
	c.mu.Lock()
	c.timers = append(c.timers, key)
	c.mu.Unlock()
}

func (c *collector) waitMsgs(t *testing.T, n int) []env.Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		if len(c.msgs) >= n {
			out := append([]env.Message(nil), c.msgs...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages", n)
	return nil
}

func startPair(t *testing.T) (*Node, *Node, *collector, *collector) {
	t.Helper()
	h1, h2 := &collector{}, &collector{}
	n1, err := Listen(1, "127.0.0.1:0", h1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Listen(2, "127.0.0.1:0", h2, nil)
	if err != nil {
		t.Fatal(err)
	}
	n1.AddPeer(2, n2.Addr())
	n2.AddPeer(1, n1.Addr())
	n1.Start()
	n2.Start()
	t.Cleanup(func() { n1.Close(); n2.Close() })
	return n1, n2, h1, h2
}

func TestSendAcrossTCP(t *testing.T) {
	n1, _, _, h2 := startPair(t)
	n1.InjectFile("f", func(e env.Env) {
		e.Send(2, wire.CollectRequest{File: "f", Token: 42})
	})
	msgs := h2.waitMsgs(t, 1)
	got, ok := msgs[0].(wire.CollectRequest)
	if !ok || got.Token != 42 || got.File != "f" {
		t.Fatalf("got %#v", msgs[0])
	}
}

func TestBidirectionalAndFromField(t *testing.T) {
	n1, n2, h1, h2 := startPair(t)
	n1.Inject(func(e env.Env) { e.Send(2, wire.CFAAck{Token: 1, OK: true}) })
	n2.Inject(func(e env.Env) { e.Send(1, wire.CFAAck{Token: 2, OK: false}) })
	h2.waitMsgs(t, 1)
	h1.waitMsgs(t, 1)
	h1.mu.Lock()
	defer h1.mu.Unlock()
	if h1.froms[0] != 2 {
		t.Fatalf("from = %v, want 2", h1.froms[0])
	}
}

func TestComplexPayloadRoundTrip(t *testing.T) {
	n1, _, _, h2 := startPair(t)
	n1.InjectFile("board", func(e env.Env) {
		v := newVectorForTest(e)
		e.Send(2, wire.DetectRequest{File: "board", Token: 7, VV: v})
	})
	msgs := h2.waitMsgs(t, 1)
	req := msgs[0].(wire.DetectRequest)
	if req.VV == nil || req.VV.Count(1) != 2 || req.VV.Meta != 9 {
		t.Fatalf("vector did not survive the wire: %v", req.VV)
	}
}

func newVectorForTest(e env.Env) *vv.Vector {
	v := vv.New()
	v.Tick(1, e.Stamp(), 5)
	v.Tick(1, e.Stamp()+1, 9)
	return v
}

func TestTimersFireThroughEventLoop(t *testing.T) {
	n1, _, h1, _ := startPair(t)
	n1.Inject(func(e env.Env) { e.After(10*time.Millisecond, "tick", nil) })
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		h1.mu.Lock()
		n := len(h1.timers)
		h1.mu.Unlock()
		if n == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timer never fired")
}

func TestManyMessagesAllArrive(t *testing.T) {
	n1, _, _, h2 := startPair(t)
	const total = 200
	for i := 0; i < total; i++ {
		tok := int64(i)
		n1.InjectFile("f", func(e env.Env) { e.Send(2, wire.CollectRequest{File: "f", Token: tok}) })
	}
	msgs := h2.waitMsgs(t, total)
	seen := make(map[int64]bool)
	for _, m := range msgs {
		seen[m.(wire.CollectRequest).Token] = true
	}
	if len(seen) != total {
		t.Fatalf("got %d distinct tokens, want %d", len(seen), total)
	}
}

func TestCloseIsIdempotentAndStopsLoops(t *testing.T) {
	h := &collector{}
	n, err := Listen(9, "127.0.0.1:0", h, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnblocksInboundReadLoops is the regression test for the Close
// deadlock: with live bidirectional connections (each node holding an
// inbound socket whose remote end stays open), Close must still return
// promptly by closing accepted connections itself.
func TestCloseUnblocksInboundReadLoops(t *testing.T) {
	h1, h2 := &collector{}, &collector{}
	n1, err := Listen(1, "127.0.0.1:0", h1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Listen(2, "127.0.0.1:0", h2, nil)
	if err != nil {
		t.Fatal(err)
	}
	n1.AddPeer(2, n2.Addr())
	n2.AddPeer(1, n1.Addr())
	n1.Start()
	n2.Start()
	// Traffic both ways so both nodes hold inbound connections.
	n1.Inject(func(e env.Env) { e.Send(2, wire.CFAAck{Token: 1, OK: true}) })
	n2.Inject(func(e env.Env) { e.Send(1, wire.CFAAck{Token: 2, OK: true}) })
	h1.waitMsgs(t, 1)
	h2.waitMsgs(t, 1)

	done := make(chan struct{})
	go func() {
		n1.Close() // n2 still fully alive: its outbound to n1 is open
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked on a blocked inbound read loop")
	}
	n2.Close()
}

func TestSendToUnknownPeerDoesNotPanic(t *testing.T) {
	n1, _, _, _ := startPair(t)
	n1.Inject(func(e env.Env) { e.Send(99, wire.CFACancel{Token: 1}) })
	time.Sleep(20 * time.Millisecond)
}

// TestReconnectToLateStartingPeer is the regression test for the
// single-dial-attempt bug: a peer whose address is known but who has not
// started listening yet must become reachable once it comes up, via the
// writer's backoff redial — not stay unreachable forever.
func TestReconnectToLateStartingPeer(t *testing.T) {
	// Reserve an address for the late peer, then free it.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateAddr := rsv.Addr().String()
	rsv.Close()

	h1 := &collector{}
	n1, err := Listen(1, "127.0.0.1:0", h1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n1.AddPeer(2, lateAddr)
	n1.Start()
	t.Cleanup(func() { n1.Close() })

	// Send while peer 2 is down: the frame queues and the writer
	// starts its dial/backoff loop.
	n1.InjectFile("f", func(e env.Env) { e.Send(2, wire.CollectRequest{File: "f", Token: 7}) })
	time.Sleep(150 * time.Millisecond) // let at least one dial fail

	h2 := &collector{}
	n2, err := Listen(2, lateAddr, h2, nil)
	if err != nil {
		t.Fatalf("late peer could not bind reserved addr: %v", err)
	}
	n2.AddPeer(1, n1.Addr())
	n2.Start()
	t.Cleanup(func() { n2.Close() })

	msgs := h2.waitMsgs(t, 1)
	got, ok := msgs[0].(wire.CollectRequest)
	if !ok || got.Token != 7 {
		t.Fatalf("late peer got %#v, want the queued CollectRequest", msgs[0])
	}
}

// TestRemovePeerStopsRedial is the regression test for the
// redial-forever bug: a peer that is gone used to be redialed at the
// backoff cap for the life of the process. Removing the peer must stop
// the redial loop, tear down the send queue, and zero the queue-depth
// gauge.
func TestRemovePeerStopsRedial(t *testing.T) {
	// A reserved-then-freed address: dials always fail.
	rsv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := rsv.Addr().String()
	rsv.Close()

	h1 := &collector{}
	n1, err := Listen(1, "127.0.0.1:0", h1, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	n1.AttachMetrics(reg)
	n1.AddPeer(2, deadAddr)
	n1.Start()
	t.Cleanup(func() { n1.Close() })

	// Queue a frame: the writer starts its dial/backoff loop.
	n1.InjectFile("f", func(e env.Env) { e.Send(2, wire.CollectRequest{File: "f", Token: 1}) })
	retriesAt := func() int64 { return reg.Snapshot().Counters["transport.dial_retries_total"] }
	deadline := time.Now().Add(5 * time.Second)
	for retriesAt() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if retriesAt() == 0 {
		t.Fatal("writer never attempted a dial")
	}

	n1.RemovePeer(2)
	if n1.HasPeer(2) {
		t.Fatal("peer still registered after RemovePeer")
	}
	// The redial loop must wind down: after a settle period the retry
	// counter stops moving.
	time.Sleep(100 * time.Millisecond)
	before := retriesAt()
	time.Sleep(500 * time.Millisecond)
	if after := retriesAt(); after != before {
		t.Fatalf("dial retries still advancing after removal: %d -> %d", before, after)
	}
	if d := n1.QueueDepth(2); d != 0 {
		t.Fatalf("queue depth after removal = %d, want 0", d)
	}
	if g := reg.Snapshot().Gauges["transport.queue_depth.n2"]; g != 0 {
		t.Fatalf("queue-depth gauge after removal = %d, want 0", g)
	}

	// Sending to the removed peer is a no-op, not a panic or a new link.
	n1.InjectFile("f", func(e env.Env) { e.Send(2, wire.CollectRequest{File: "f", Token: 2}) })
	time.Sleep(50 * time.Millisecond)
	if n1.QueueDepth(2) != 0 {
		t.Fatal("send to removed peer recreated a link")
	}
}

// countingConn is an inbound connection whose bytes are already queued,
// as when the kernel coalesced a peer's writev; it counts Read calls.
type countingConn struct {
	net.Conn // nil: the read loop only reads and closes
	r        *bytes.Reader
	reads    int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

func (c *countingConn) Close() error { return nil }

// TestReadLoopBuffersFrames: frames that arrive together are read
// together. Unbuffered, each frame costs two reads (header, then body).
func TestReadLoopBuffersFrames(t *testing.T) {
	h := &collector{}
	n, err := Listen(2, "127.0.0.1:0", h, nil)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(func() { n.Close() })

	const frames = 200
	var batch net.Buffers
	for i := 0; i < frames; i++ {
		f, err := wire.EncodeFrame(wire.Envelope{From: 1, To: 2, Msg: wire.CollectRequest{File: "f", Token: int64(i)}}, frameHeader)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Release()
		b := f.Bytes()
		binary.BigEndian.PutUint32(b[:frameHeader], uint32(len(b)-frameHeader))
		batch = append(batch, b)
	}
	var sent bytes.Buffer
	if _, err := batch.WriteTo(&sent); err != nil {
		t.Fatal(err)
	}
	c := &countingConn{r: bytes.NewReader(sent.Bytes())}
	n.wg.Add(1)
	n.readLoop(c) // returns at EOF

	msgs := h.waitMsgs(t, frames)
	for i, m := range msgs {
		if tok := m.(wire.CollectRequest).Token; tok != int64(i) {
			t.Fatalf("message %d carries token %d: frames reordered or lost", i, tok)
		}
	}
	if c.reads > frames/10 {
		t.Fatalf("%d frames took %d reads, want at most %d", frames, c.reads, frames/10)
	}
}
