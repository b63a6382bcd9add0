package core

// Routing-contract tests for the sharded node: every callback touching
// one file — messages, timers, injected calls — must land in the same
// serialization domain, or the lock-free per-shard state is unsound.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/vv"
	"idea/internal/wire"
)

// stubEnv is a minimal env.Env capturing After calls for routing checks.
type stubEnv struct {
	id    id.NodeID
	after func(key string, data any)
}

func (s stubEnv) ID() id.NodeID               { return s.id }
func (s stubEnv) Now() time.Time              { return time.Unix(0, 1) }
func (s stubEnv) Stamp() vv.Stamp             { return 1 }
func (s stubEnv) Send(id.NodeID, env.Message) {}
func (s stubEnv) After(_ time.Duration, key string, data any) {
	if s.after != nil {
		s.after(key, data)
	}
}
func (s stubEnv) Rand() *rand.Rand    { return rand.New(rand.NewSource(1)) }
func (s stubEnv) Logf(string, ...any) {}

func shardedNode(t *testing.T, shards int) *Node {
	t.Helper()
	ids := []id.NodeID{1, 2}
	return NewNode(1, Options{
		Membership:    overlay.NewStatic(ids, map[id.FileID][]id.NodeID{}),
		All:           ids,
		Shards:        shards,
		DisableRansub: true,
	})
}

func TestShardRoutingConsistent(t *testing.T) {
	n := shardedNode(t, 5)
	if n.Shards() != 5 {
		t.Fatalf("Shards() = %d, want 5", n.Shards())
	}
	for i := 0; i < 64; i++ {
		f := id.FileID(fmt.Sprintf("f-%d", i))
		want := n.ShardOfFile(f)
		if want < 0 || want >= 5 {
			t.Fatalf("ShardOfFile(%q) = %d out of range", f, want)
		}
		msgs := []env.Message{
			wire.DetectRequest{File: f},
			wire.DetectReply{File: f},
			wire.GossipDigest{File: f},
			wire.GossipReport{File: f, Round: 1},
			wire.CallForAttention{File: f},
			wire.CFAAck{File: f},
			wire.CollectRequest{File: f},
			wire.CollectReply{File: f},
			wire.Inform{File: f},
			wire.InformAck{File: f},
		}
		for _, m := range msgs {
			if got := n.ShardOfMessage(m); got != want {
				t.Fatalf("message %s for %q routes to shard %d, file owns %d", m.Kind(), f, got, want)
			}
		}
		if got := n.ShardOfTimer("core.auto:"+string(f), nil); got != want {
			t.Fatalf("auto timer for %q routes to shard %d, file owns %d", f, got, want)
		}
		if got := n.ShardOfTimer("resolve.retry", f); got != want {
			t.Fatalf("retry timer for %q routes to shard %d, file owns %d", f, got, want)
		}
		if got := n.ShardOfTimer("resolve.background", f); got != want {
			t.Fatalf("background timer for %q routes to shard %d, file owns %d", f, got, want)
		}
	}
	// Node-global traffic stays on shard 0.
	if got := n.ShardOfMessage(wire.RansubCollect{File: "f-1"}); got != 0 {
		t.Fatalf("ransub collect routed to shard %d, want 0 (node-global)", got)
	}
	if got := n.ShardOfTimer("ransub.epoch", nil); got != 0 {
		t.Fatalf("ransub timer routed to shard %d, want 0", got)
	}
	// Gossip round timers route by their agent's shard label.
	for i := 0; i < 5; i++ {
		if got := n.ShardOfTimer("gossip.round", i); got != i {
			t.Fatalf("gossip round for shard %d routed to %d", i, got)
		}
	}
	if got := n.ShardOfTimer("gossip.round", 99); got != 0 {
		t.Fatalf("out-of-range gossip label routed to %d, want 0", got)
	}
	// Shard-start fan-out timers route to their labelled shard.
	for i := 0; i < 5; i++ {
		if got := n.ShardOfTimer(keyShardStart, i); got != i {
			t.Fatalf("shard start %d routed to %d", i, got)
		}
	}
}

func TestDetectTimerRoutesWithProbe(t *testing.T) {
	// A detect timeout must fire in the shard that owns the probe: arm a
	// probe through the public write path and check the timer the
	// detector armed routes to the file's shard.
	n := shardedNode(t, 4)
	var armed []struct {
		key  string
		data any
	}
	e := stubEnv{id: 1, after: func(key string, data any) {
		armed = append(armed, struct {
			key  string
			data any
		}{key, data})
	}}
	file := id.FileID("probe-file")
	// No top peers: probe finalizes synchronously, but a timer may still
	// have been armed beforehand; any detect timer armed must route home.
	n.Write(e, file, "w", nil, 0)
	for _, a := range armed {
		if got, want := n.ShardOfTimer(a.key, a.data), n.ShardOfFile(file); got != want {
			t.Fatalf("timer %q routes to shard %d, file owns %d", a.key, got, want)
		}
	}
	if n.Store().Peek(file) == nil {
		t.Fatal("write did not open a replica")
	}
}

func TestSingleShardIsDefault(t *testing.T) {
	n := NewNode(1, Options{All: []id.NodeID{1, 2}})
	if n.Shards() != 1 {
		t.Fatalf("default Shards() = %d, want 1", n.Shards())
	}
	if env.ShardCount(n) != 1 {
		t.Fatal("single-shard node must present as one domain to runtimes")
	}
}
