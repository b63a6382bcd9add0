package transport

// Contract tests for the shard executor (see the package comment): a
// delivery to an idle shard runs on the delivering goroutine, a delivery
// to a busy one queues. Each test names the broken executor it catches.
// CI repeats them under the race detector: go test -race -count=10 -run
// Executor ./internal/transport/

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

// shardedLog is a two-shard handler that records the gossip rounds it
// receives per file and reports any two callbacks of one shard that
// overlap. Injected closures use enter/exit for the same check.
type shardedLog struct {
	t      *testing.T
	busy   [2]atomic.Int32
	mu     sync.Mutex
	rounds map[id.FileID][]int
}

func (h *shardedLog) Shards() int                        { return 2 }
func (h *shardedLog) ShardOfFile(f id.FileID) int        { return env.ShardOf(f, 2) }
func (h *shardedLog) ShardOfTimer(key string, _ any) int { return 0 }
func (h *shardedLog) ShardOfMessage(m env.Message) int {
	if f, ok := wire.RoutingFile(m); ok {
		return h.ShardOfFile(f)
	}
	return 0
}

func (h *shardedLog) enter(f id.FileID) {
	if h.busy[h.ShardOfFile(f)].Add(1) != 1 {
		h.t.Errorf("two handlers of shard %d ran at once", h.ShardOfFile(f))
	}
	runtime.Gosched() // give an overlapping handler the chance to show
}

func (h *shardedLog) exit(f id.FileID) { h.busy[h.ShardOfFile(f)].Add(-1) }

func (h *shardedLog) Start(env.Env)              {}
func (h *shardedLog) Timer(env.Env, string, any) {}
func (h *shardedLog) Recv(_ env.Env, _ id.NodeID, m env.Message) {
	d := m.(wire.GossipDigest)
	h.enter(d.File)
	h.mu.Lock()
	h.rounds[d.File] = append(h.rounds[d.File], d.Round)
	h.mu.Unlock()
	h.exit(d.File)
}

func (h *shardedLog) received() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for _, r := range h.rounds {
		total += len(r)
	}
	return total
}

// startNode starts a peerless node with the given queue size and closes
// it when the test ends.
func startNode(t *testing.T, h env.Handler, shardQueue int) *Node {
	t.Helper()
	n, err := ListenOpts(1, "127.0.0.1:0", h, nil, Opts{ShardQueue: shardQueue})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	t.Cleanup(func() { n.Close() })
	return n
}

// within fails the test unless ch closes within d.
func within(t *testing.T, ch <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(d):
		t.Fatalf("%s did not happen within %v", what, d)
	}
}

// stillOpen fails the test if ch closes within d.
func stillOpen(t *testing.T, ch <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-ch:
		t.Fatalf("%s happened too early", what)
	case <-time.After(d):
	}
}

// TestExecutorPerProducerFIFO: several injectors and one connection
// reader deliver to both shards at once; every producer's events for a
// file run in delivery order, one handler per shard at a time. The
// reader's frames are wire.DigestBatches, so the sub-messages of one
// frame are covered too. Catches a LIFO queue, a runner that lets a
// producer run its event inline on a busy shard, and a goroutine per
// event.
func TestExecutorPerProducerFIFO(t *testing.T) {
	const (
		producers = 4
		perFile   = 200
		frames    = 100
	)
	h := &shardedLog{t: t, rounds: make(map[id.FileID][]int)}
	n := startNode(t, h, 8)
	files := []id.FileID{"a", "b", "c", "d", "e", "f"}
	var covered [2]bool
	for _, f := range files {
		covered[h.ShardOfFile(f)] = true
	}
	if !covered[0] || !covered[1] {
		t.Fatal("test files do not cover both shards")
	}

	// The reader's input: each frame carries one digest per file, rounds
	// numbered per file in send order.
	var sent bytes.Buffer
	round := 0
	for i := 0; i < frames; i++ {
		var b wire.DigestBatch
		for _, f := range files {
			b.Digests = append(b.Digests, wire.GossipDigest{File: f, Origin: 2, Round: round, VV: vv.New()})
		}
		round++
		fr, err := wire.EncodeFrame(wire.Envelope{From: 2, To: 1, Msg: b}, frameHeader)
		if err != nil {
			t.Fatal(err)
		}
		p := fr.Bytes()
		binary.BigEndian.PutUint32(p[:frameHeader], uint32(len(p)-frameHeader))
		sent.Write(p)
		fr.Release()
	}

	got := make([][][]int, producers) // [producer][file] → sequence numbers
	var ran sync.WaitGroup
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		got[p] = make([][]int, len(files))
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perFile; i++ {
				for fi, f := range files {
					ran.Add(1)
					n.InjectFile(f, func(env.Env) {
						defer ran.Done()
						h.enter(f)
						got[p][fi] = append(got[p][fi], i)
						h.exit(f)
					})
				}
			}
		}(p)
	}
	n.wg.Add(1)
	go n.readLoop(&countingConn{r: bytes.NewReader(sent.Bytes())})
	wg.Wait()
	ran.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for h.received() < frames*len(files) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	for p := range got {
		for fi, seq := range got[p] {
			if len(seq) != perFile {
				t.Fatalf("producer %d file %s: %d events ran, want %d", p, files[fi], len(seq), perFile)
			}
			for i, v := range seq {
				if v != i {
					t.Fatalf("producer %d file %s: event %d ran in position %d", p, files[fi], v, i)
				}
			}
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range files {
		rs := h.rounds[f]
		if len(rs) != frames {
			t.Fatalf("file %s: %d digests arrived, want %d", f, len(rs), frames)
		}
		for i, r := range rs {
			if r != i {
				t.Fatalf("file %s: digest round %d arrived in position %d", f, r, i)
			}
		}
	}
}

// TestExecutorReentrantInjectRunsAfter: a handler that injects into its
// own shard sees that closure run after it returns, not nested inside
// it. Catches a runner that dispatches a delivery from its own handler
// immediately.
func TestExecutorReentrantInjectRunsAfter(t *testing.T) {
	n := startNode(t, &collector{}, 0)
	var mu sync.Mutex
	var order []string
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	innerRan := make(chan struct{})
	n.InjectFile("f", func(env.Env) {
		note("outer start")
		n.InjectFile("f", func(env.Env) {
			note("inner")
			close(innerRan)
		})
		note("outer end")
	})
	within(t, innerRan, 5*time.Second, "the inner closure")
	mu.Lock()
	defer mu.Unlock()
	if want := "[outer start outer end inner]"; fmt.Sprint(order) != want {
		t.Fatalf("order %v, want %s", order, want)
	}
}

// blockShard injects a closure into f's shard that blocks until the
// returned release is called; it returns once the closure is running.
func blockShard(t *testing.T, n *Node, f id.FileID) (release func()) {
	t.Helper()
	started, unblock := make(chan struct{}), make(chan struct{})
	go n.InjectFile(f, func(env.Env) {
		close(started)
		<-unblock
	})
	within(t, started, 5*time.Second, "the blocking handler's start")
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(release)
	return release
}

// TestExecutorBackpressure: with ShardQueue 4 and the shard's handler
// blocked, four deliveries queue and return, and a fifth waits until the
// handler returns. Catches an unbounded queue and an off-by-one bound.
func TestExecutorBackpressure(t *testing.T) {
	n := startNode(t, &collector{}, 4)
	release := blockShard(t, n, "f")
	for i := 0; i < 4; i++ {
		queued := make(chan struct{})
		go func() {
			n.InjectFile("f", func(env.Env) {})
			close(queued)
		}()
		within(t, queued, 5*time.Second, fmt.Sprintf("delivery %d into a queue with room", i+1))
	}
	fifth := make(chan struct{})
	go func() {
		n.InjectFile("f", func(env.Env) {})
		close(fifth)
	}()
	stillOpen(t, fifth, 50*time.Millisecond, "a delivery into the full queue")
	release()
	within(t, fifth, 5*time.Second, "the waiting delivery after the handler returned")
}

// TestExecutorCloseWaitsForHandler: Close returns only after the
// in-flight handler does, the events queued behind it are dropped, and
// nothing runs once Close has returned. Catches a Close that does not
// wait for the runner and a runner that drains its queue after Close.
func TestExecutorCloseWaitsForHandler(t *testing.T) {
	n := startNode(t, &collector{}, 0)
	release := blockShard(t, n, "f")
	var closed, lateRuns, queuedRuns atomic.Int32
	for i := 0; i < 3; i++ {
		n.InjectFile("f", func(env.Env) {
			queuedRuns.Add(1)
			if closed.Load() != 0 {
				lateRuns.Add(1)
			}
		})
	}
	closeDone := make(chan struct{})
	go func() {
		n.Close()
		closed.Store(1)
		close(closeDone)
	}()
	stillOpen(t, closeDone, 50*time.Millisecond, "Close with a handler in flight")
	release()
	within(t, closeDone, 5*time.Second, "Close after the handler returned")

	n.InjectFile("f", func(env.Env) { lateRuns.Add(1) })
	n.Inject(func(env.Env) { lateRuns.Add(1) })
	time.Sleep(20 * time.Millisecond)
	if got := lateRuns.Load(); got != 0 {
		t.Fatalf("%d handlers ran after Close returned", got)
	}
	if got := queuedRuns.Load(); got != 0 {
		t.Fatalf("%d events queued behind the blocked handler ran during Close", got)
	}
}

// TestExecutorBoundedTurn: an injector that finds the shard idle runs
// its closure, but its InjectFile still returns while another goroutine
// keeps the queue full. Catches a runner whose turn is unbounded.
func TestExecutorBoundedTurn(t *testing.T) {
	n := startNode(t, &collector{}, 16)
	running, flooding := make(chan struct{}), make(chan struct{})
	returned, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		n.InjectFile("f", func(env.Env) {
			close(running)
			<-flooding
		})
		close(returned)
	}()
	go func() {
		defer close(stopped)
		<-running
		for i := 0; ; i++ {
			n.InjectFile("f", func(env.Env) { time.Sleep(50 * time.Microsecond) })
			if i == 0 {
				close(flooding)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Error("InjectFile was held by a flood of other deliveries")
	}
	close(stop)
	<-stopped
}
