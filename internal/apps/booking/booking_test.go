package booking

import (
	"testing"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/simnet"
)

const flight = id.FileID("flight-42")

type fixture struct {
	c       *simnet.Cluster
	servers map[id.NodeID]*Server
	ids     []id.NodeID
}

func build(t *testing.T, n, inventory int, seed int64) *fixture {
	t.Helper()
	ids := cluster.IDs(n)
	sim, err := cluster.NewSim(cluster.Topology{
		Nodes:     ids,
		TopLayers: map[id.FileID][]id.NodeID{flight: ids},
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.DisableGossip = true
			return nil
		},
	}, simnet.Config{Seed: seed, Latency: simnet.Constant(40 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	servers := make(map[id.NodeID]*Server, n)
	for nid, node := range sim.Nodes {
		s, err := New(node, flight, inventory, 100)
		if err != nil {
			t.Fatal(err)
		}
		servers[nid] = s
	}
	return &fixture{c: sim.C, servers: servers, ids: ids}
}

func TestBookWithinInventory(t *testing.T) {
	f := build(t, 1, 10, 121)
	f.c.CallAt(time.Second, 1, func(e env.Env) {
		if !f.servers[1].Book(e, 3) {
			t.Error("booking within inventory rejected")
		}
	})
	f.c.RunFor(2 * time.Second)
	if got := f.servers[1].SoldLocally(); got != 3 {
		t.Fatalf("sold = %d", got)
	}
	if f.servers[1].Accepted != 3 {
		t.Fatalf("accepted = %d", f.servers[1].Accepted)
	}
}

func TestBookRejectsWhenFull(t *testing.T) {
	f := build(t, 1, 4, 123)
	f.c.CallAt(time.Second, 1, func(e env.Env) {
		f.servers[1].Book(e, 3)
		if f.servers[1].Book(e, 2) {
			t.Error("over-inventory booking accepted locally")
		}
	})
	f.c.RunFor(2 * time.Second)
	if f.servers[1].Rejected != 2 {
		t.Fatalf("rejected = %d", f.servers[1].Rejected)
	}
}

func TestStaleViewsCauseOverselling(t *testing.T) {
	// Two servers, 5 seats, no resolution: each sells 4 from its stale
	// local view — globally 8 > 5: oversold. This is exactly the §3.2
	// trade-off IDEA's background resolution bounds.
	f := build(t, 2, 5, 125)
	f.c.CallAt(time.Second, 1, func(e env.Env) { f.servers[1].Book(e, 4) })
	f.c.CallAt(time.Second, 2, func(e env.Env) { f.servers[2].Book(e, 4) })
	f.c.RunFor(3 * time.Second)
	all := []*Server{f.servers[1], f.servers[2]}
	if got := GlobalSold(all); got != 8 {
		t.Fatalf("global sold = %d, want 8", got)
	}
}

func TestBackgroundResolutionLimitsOverselling(t *testing.T) {
	run := func(freq time.Duration) int {
		f := build(t, 2, 10, 127)
		if freq > 0 {
			for _, nid := range f.ids {
				nid := nid
				f.c.CallAt(0, nid, func(e env.Env) {
					f.servers[nid].Node.SetBackgroundFreq(e, flight, freq)
				})
			}
		}
		// Steady demand at both servers for 100 s.
		for s := 2 * time.Second; s <= 100*time.Second; s += 4 * time.Second {
			for _, nid := range f.ids {
				nid := nid
				f.c.CallAt(s, nid, func(e env.Env) { f.servers[nid].Book(e, 1) })
			}
		}
		f.c.RunFor(2 * time.Minute)
		sold := GlobalSold([]*Server{f.servers[1], f.servers[2]})
		over := sold - 10
		if over < 0 {
			over = 0
		}
		return over
	}
	without := run(0)
	with := run(10 * time.Second)
	if with >= without {
		t.Fatalf("oversell with resolution (%d) not better than without (%d)", with, without)
	}
}

func TestAutomaticModeEndToEnd(t *testing.T) {
	f := build(t, 3, 30, 129)
	ctl := &core.AutoController{
		CapacityBps:    50_000,
		MaxShare:       0.2,
		RoundCostBytes: 100_000, // Formula 4 → period 10 s
		MinPeriod:      2 * time.Second,
	}
	f.c.CallAt(0, 1, func(e env.Env) {
		f.servers[1].EnableAutomatic(e, ctl, 20*time.Second)
	})
	f.c.RunFor(time.Second)
	if got := f.servers[1].Node.BackgroundFreq(flight); got != 10*time.Second {
		t.Fatalf("period = %v, want 10 s from Formula 4", got)
	}
	for s := 2 * time.Second; s <= 60*time.Second; s += 3 * time.Second {
		for _, nid := range f.ids {
			nid := nid
			f.c.CallAt(s, nid, func(e env.Env) { f.servers[nid].Book(e, 1) })
		}
	}
	f.c.RunFor(90 * time.Second)
	// Background resolution converged the records.
	s1 := f.servers[1].SoldLocally()
	for _, nid := range f.ids[1:] {
		if got := f.servers[nid].SoldLocally(); got != s1 {
			t.Fatalf("server %v sold view %d != %d", nid, got, s1)
		}
	}
	// Oversell feedback tightens the frequency.
	before := f.servers[1].Node.BackgroundFreq(flight)
	f.c.CallAt(f.c.Elapsed()+time.Second, 1, func(e env.Env) { f.servers[1].ReportOversell(e) })
	f.c.RunFor(3 * time.Second)
	if got := f.servers[1].Node.BackgroundFreq(flight); got >= before {
		t.Fatalf("freq after oversell: %v, want < %v", got, before)
	}
}

func TestLevelReflectsDivergence(t *testing.T) {
	f := build(t, 2, 100, 131)
	f.c.CallAt(time.Second, 1, func(e env.Env) { f.servers[1].Book(e, 2) })
	f.c.CallAt(time.Second, 2, func(e env.Env) { f.servers[2].Book(e, 3) })
	f.c.RunFor(3 * time.Second)
	if f.servers[1].Level() >= 1 {
		t.Fatal("diverged records but level = 1")
	}
}

func TestSettlementReportsOversell(t *testing.T) {
	f := build(t, 2, 5, 133)
	ctl := &core.AutoController{
		CapacityBps: 10_000, MaxShare: 0.2, RoundCostBytes: 40_000,
		MinPeriod: 2 * time.Second,
	}
	f.c.CallAt(0, 1, func(e env.Env) { f.servers[1].EnableAutomatic(e, ctl, time.Hour) })
	st := &booking2Settlement{Settlement{Servers: []*Server{f.servers[1], f.servers[2]}}}
	// Both servers sell 4 of 5 seats from stale views → global 8 > 5.
	f.c.CallAt(time.Second, 1, func(e env.Env) { f.servers[1].Book(e, 4) })
	f.c.CallAt(time.Second, 2, func(e env.Env) { f.servers[2].Book(e, 4) })
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { st.Reconcile(e, 8) })
	f.c.RunFor(5 * time.Second)
	if st.Oversells != 1 {
		t.Fatalf("oversells = %d", st.Oversells)
	}
	if _, hi := ctl.LearnedBounds(); hi == 0 {
		t.Fatal("oversell did not teach the controller a ceiling")
	}
}

func TestSettlementReportsUndersell(t *testing.T) {
	f := build(t, 2, 100, 135)
	ctl := &core.AutoController{
		CapacityBps: 10_000, MaxShare: 0.2, RoundCostBytes: 10_000,
		MinPeriod: time.Second,
	}
	f.c.CallAt(0, 1, func(e env.Env) { f.servers[1].EnableAutomatic(e, ctl, time.Hour) })
	st := &booking2Settlement{Settlement{Servers: []*Server{f.servers[1], f.servers[2]}}}
	// Heavy demand (20 seats requested) but only 2 sold: undersell.
	f.c.CallAt(time.Second, 1, func(e env.Env) { f.servers[1].Book(e, 1) })
	f.c.CallAt(time.Second, 2, func(e env.Env) { f.servers[2].Book(e, 1) })
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { st.Reconcile(e, 20) })
	f.c.RunFor(5 * time.Second)
	if st.Undersells != 1 {
		t.Fatalf("undersells = %d", st.Undersells)
	}
	if lo, _ := ctl.LearnedBounds(); lo == 0 {
		t.Fatal("undersell did not teach the controller a floor")
	}
}

func TestSettlementQuietWhenHealthy(t *testing.T) {
	f := build(t, 2, 100, 137)
	st := &booking2Settlement{Settlement{Servers: []*Server{f.servers[1], f.servers[2]}}}
	f.c.CallAt(time.Second, 1, func(e env.Env) { f.servers[1].Book(e, 10) })
	f.c.CallAt(3*time.Second, 1, func(e env.Env) { st.Reconcile(e, 12) })
	f.c.RunFor(5 * time.Second)
	if st.Oversells != 0 || st.Undersells != 0 {
		t.Fatalf("healthy period reported oversell=%d undersell=%d", st.Oversells, st.Undersells)
	}
}

// booking2Settlement just embeds Settlement (keeps the test file additive).
type booking2Settlement struct{ Settlement }
