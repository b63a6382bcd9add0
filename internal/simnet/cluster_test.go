package simnet

import (
	"math/rand"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
)

type ping struct{ N int }

func (ping) Kind() string { return "test.ping" }

type echoHandler struct {
	got     []int
	started bool
	timers  []string
}

func (h *echoHandler) Start(e env.Env) { h.started = true }
func (h *echoHandler) Recv(e env.Env, from id.NodeID, m env.Message) {
	p := m.(ping)
	h.got = append(h.got, p.N)
	if p.N > 0 {
		e.Send(from, ping{N: p.N - 1})
	}
}
func (h *echoHandler) Timer(e env.Env, key string, data any) {
	h.timers = append(h.timers, key)
}

func newPair(t *testing.T, cfg Config) (*Cluster, *echoHandler, *echoHandler) {
	t.Helper()
	c := New(cfg)
	h1, h2 := &echoHandler{}, &echoHandler{}
	c.Add(1, h1)
	c.Add(2, h2)
	c.Start()
	if !h1.started || !h2.started {
		t.Fatal("Start not delivered to both handlers")
	}
	return c, h1, h2
}

func TestPingPongDelivery(t *testing.T) {
	c, h1, h2 := newPair(t, Config{Seed: 1, Latency: Constant(10 * time.Millisecond)})
	c.Env(1).Send(2, ping{N: 3})
	c.RunFor(time.Second)
	if len(h2.got) != 2 || h2.got[0] != 3 || h2.got[1] != 1 {
		t.Fatalf("h2 got %v, want [3 1]", h2.got)
	}
	if len(h1.got) != 2 || h1.got[0] != 2 || h1.got[1] != 0 {
		t.Fatalf("h1 got %v, want [2 0]", h1.got)
	}
}

func TestConstantLatencyTiming(t *testing.T) {
	c, _, h2 := newPair(t, Config{Seed: 1, Latency: Constant(50 * time.Millisecond)})
	c.Env(1).Send(2, ping{N: 0})
	c.RunFor(49 * time.Millisecond)
	if len(h2.got) != 0 {
		t.Fatal("message arrived before its latency elapsed")
	}
	c.RunFor(2 * time.Millisecond)
	if len(h2.got) != 1 {
		t.Fatal("message did not arrive after latency elapsed")
	}
}

func TestTimers(t *testing.T) {
	c, h1, _ := newPair(t, Config{Seed: 1})
	c.Env(1).After(100*time.Millisecond, "a", nil)
	c.Env(1).After(10*time.Millisecond, "b", nil)
	c.RunFor(time.Second)
	if len(h1.timers) != 2 || h1.timers[0] != "b" || h1.timers[1] != "a" {
		t.Fatalf("timers fired %v, want [b a]", h1.timers)
	}
}

func TestCallAtRunsInNodeContext(t *testing.T) {
	c, _, h2 := newPair(t, Config{Seed: 1, Latency: Constant(time.Millisecond)})
	var calledAt time.Duration
	c.CallAt(300*time.Millisecond, 1, func(e env.Env) {
		calledAt = c.Elapsed()
		e.Send(2, ping{N: 0})
	})
	c.RunFor(time.Second)
	if calledAt != 300*time.Millisecond {
		t.Fatalf("call ran at %v, want 300ms", calledAt)
	}
	if len(h2.got) != 1 {
		t.Fatal("send from injected call not delivered")
	}
}

func TestStatsCountMessagesAndBytes(t *testing.T) {
	c, _, _ := newPair(t, Config{Seed: 1, Latency: Constant(time.Millisecond)})
	c.Env(1).Send(2, ping{N: 2})
	c.RunFor(time.Second)
	// 3 messages total: N=2, N=1, N=0.
	if got := c.Stats().Count("test.ping"); got != 3 {
		t.Fatalf("ping count = %d, want 3", got)
	}
	if c.Stats().Bytes() <= 0 {
		t.Fatal("no bytes recorded")
	}
}

func TestLossDropsMessages(t *testing.T) {
	c, _, h2 := newPair(t, Config{Seed: 7, Latency: Constant(time.Millisecond), Loss: 1.0})
	c.Env(1).Send(2, ping{N: 0})
	c.RunFor(time.Second)
	if len(h2.got) != 0 {
		t.Fatal("message delivered despite 100% loss")
	}
	if c.Stats().Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", c.Stats().Dropped())
	}
}

func TestPartitionAndHeal(t *testing.T) {
	c, _, h2 := newPair(t, Config{Seed: 1, Latency: Constant(time.Millisecond)})
	c.Partition(1, 2)
	c.Env(1).Send(2, ping{N: 0})
	c.RunFor(100 * time.Millisecond)
	if len(h2.got) != 0 {
		t.Fatal("message crossed a partition")
	}
	c.Heal(1, 2)
	c.Env(1).Send(2, ping{N: 0})
	c.RunFor(100 * time.Millisecond)
	if len(h2.got) != 1 {
		t.Fatal("message lost after heal")
	}
}

func TestClockSkewBounded(t *testing.T) {
	cfg := Config{Seed: 42, MaxSkew: 2 * time.Second}
	c := New(cfg)
	for i := 1; i <= 20; i++ {
		c.Add(id.NodeID(i), &echoHandler{})
	}
	c.Start()
	ref := c.VirtualNow()
	for _, nid := range c.Nodes() {
		d := c.Env(nid).Now().Sub(ref)
		if d < -2*time.Second || d > 2*time.Second {
			t.Fatalf("node %v skew %v out of bounds", nid, d)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() ([]int, int) {
		c := New(Config{Seed: 99, Latency: WAN{}})
		h1, h2 := &echoHandler{}, &echoHandler{}
		c.Add(1, h1)
		c.Add(2, h2)
		c.Start()
		for i := 0; i < 10; i++ {
			c.Env(1).Send(2, ping{N: 5})
		}
		c.RunFor(10 * time.Second)
		return h2.got, c.Events()
	}
	a, ea := run()
	b, eb := run()
	if ea != eb || len(a) != len(b) {
		t.Fatalf("replay diverged: %d/%d events, %d/%d msgs", ea, eb, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at msg %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWANLatencyDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := WAN{}
	var sum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		d := m.Latency(r, 1, 2)
		if d <= 0 {
			t.Fatal("non-positive latency")
		}
		sum += d
	}
	mean := sum / n
	if mean < 40*time.Millisecond || mean > 70*time.Millisecond {
		t.Fatalf("WAN mean one-way latency %v outside calibrated band", mean)
	}
}

func TestMatrixLatency(t *testing.T) {
	m := Matrix{
		Base:    map[[2]id.NodeID]time.Duration{{1, 2}: 10 * time.Millisecond},
		Default: Constant(99 * time.Millisecond),
	}
	r := rand.New(rand.NewSource(1))
	if got := m.Latency(r, 1, 2); got != 10*time.Millisecond {
		t.Fatalf("pair latency = %v", got)
	}
	if got := m.Latency(r, 2, 1); got != 99*time.Millisecond {
		t.Fatalf("default latency = %v", got)
	}
}

func TestUnknownDestinationBlackholed(t *testing.T) {
	c, _, _ := newPair(t, Config{Seed: 1})
	c.Env(1).Send(77, ping{N: 0}) // must not panic
	c.RunFor(time.Second)
}

func TestRunUntilIdleStops(t *testing.T) {
	c, _, h2 := newPair(t, Config{Seed: 1, Latency: Constant(time.Millisecond)})
	c.Env(1).Send(2, ping{N: 4})
	c.RunUntilIdle(1000)
	if len(h2.got) != 3 {
		t.Fatalf("h2 got %d msgs, want 3", len(h2.got))
	}
}
