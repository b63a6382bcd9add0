package simnet

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
)

// TestQueueOrderMatchesSort drives the typed heap through seeded random
// interleavings of push and pop, with few distinct due times, several
// shards, and every popped event recycled for the next push. Each pop must
// return the event a sort.Slice by (at, rank, seq) of the queued events
// puts first, and the event must still carry what it was pushed with.
func TestQueueOrderMatchesSort(t *testing.T) {
	type key struct {
		at   time.Duration
		rank uint8
		seq  uint64
		node id.NodeID
	}
	for seed := int64(1); seed <= 10; seed++ {
		c := New(Config{Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		var pending []key
		popped := map[*event]bool{}
		pops, reused := 0, 0
		for step := 0; step < 4000; step++ {
			if len(pending) == 0 || rng.Intn(2) == 0 {
				at, shard := time.Duration(rng.Intn(4))*time.Millisecond, rng.Intn(2*len(c.shardRank))
				c.push(event{at: at, node: id.NodeID(step), shard: shard})
				rank := c.shardRank[shard%len(c.shardRank)]
				pending = append(pending, key{at, rank, c.seq, id.NodeID(step)})
				continue
			}
			sort.Slice(pending, func(i, j int) bool {
				a, b := pending[i], pending[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.rank != b.rank {
					return a.rank < b.rank
				}
				return a.seq < b.seq
			})
			e := c.queue.pop()
			if got := (key{e.at, e.rank, e.seq, e.node}); got != pending[0] {
				t.Fatalf("seed %d pop %d: got %+v, sorted order says %+v", seed, pops, got, pending[0])
			}
			pending = pending[1:]
			pops++
			if popped[e] {
				reused++
			}
			popped[e] = true
			c.recycle(e)
		}
		if len(c.queue) != len(pending) {
			t.Fatalf("seed %d: queue holds %d events, want %d", seed, len(c.queue), len(pending))
		}
		if pops < 500 || reused < 100 {
			t.Fatalf("seed %d: %d pops, %d of recycled events: the interleaving exercised too little", seed, pops, reused)
		}
	}
}

// TestRecycledEventCarriesNothing: a timer event of a node's second
// incarnation, once handled, is reused for a message delivery, which must
// dispatch as a Recv, with nothing of the timer left in the event.
func TestRecycledEventCarriesNothing(t *testing.T) {
	c := New(Config{Seed: 1, Latency: Constant(10 * time.Millisecond)})
	h1, h2 := &echoHandler{}, &echoHandler{}
	c.Add(1, h1)
	c.Add(2, h2)
	c.Start()
	for range 2 {
		c.AddAt(0, 2, func() env.Handler { return h2 })
		c.Step()
	}
	if gen := c.nodes[2].gen; gen != 2 {
		t.Fatalf("node 2 is in incarnation %d, want 2", gen)
	}

	c.Env(2).After(time.Second, "tick", "payload")
	timer := c.queue[0]
	if !timer.tmr || timer.gen != 2 || timer.key != "tick" || timer.data != "payload" {
		t.Fatalf("queued timer = %+v", *timer)
	}
	c.Step()
	if len(h2.timers) != 1 {
		t.Fatalf("timers fired: %v, want [tick]", h2.timers)
	}

	c.Env(1).Send(2, ping{N: 0})
	if len(c.queue) != 1 || c.queue[0] != timer {
		t.Fatal("the send did not reuse the freed timer event")
	}
	e := c.queue[0]
	if e.tmr || e.gen != 0 || e.key != "" || e.data != nil || e.call != nil || e.sys != sysNone || e.mk != nil {
		t.Fatalf("reused event carries timer state: %+v", *e)
	}
	c.Step()
	if len(h2.got) != 1 || h2.got[0] != 0 || len(h2.timers) != 1 {
		t.Fatalf("node 2 got messages %v, timers %v; want one Recv and no second Timer", h2.got, h2.timers)
	}
}
