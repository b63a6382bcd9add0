package gossip

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

// nullEnv is an env.Env that counts sends and drops them and every timer,
// so allocation pins and benchmarks measure the agent alone.
type nullEnv struct {
	rng  *rand.Rand
	sent int
}

func (e *nullEnv) ID() id.NodeID                    { return 1 }
func (e *nullEnv) Now() time.Time                   { return time.Unix(1, 0) }
func (e *nullEnv) Stamp() vv.Stamp                  { return 1e9 }
func (e *nullEnv) Send(id.NodeID, env.Message)      { e.sent++ }
func (e *nullEnv) After(time.Duration, string, any) {}
func (e *nullEnv) Rand() *rand.Rand                 { return e.rng }
func (e *nullEnv) Logf(string, ...any)              {}

// stableNode is a gossipNode whose digests advertise a rollback floor, as
// a core node's do, with a fixed file list.
type stableNode struct {
	gossipNode
	files []id.FileID
}

func (n *stableNode) ActiveFiles() []id.FileID { return n.files }

func (n *stableNode) StableVector(f id.FileID) *vv.Vector {
	if r := n.st.Peek(f); r != nil {
		return r.StableVector()
	}
	return nil
}

// roundRig is node 1 of a 12-node bottom layer holding files f0..f7, each
// replica with one update of every writer, with a digest from every peer
// on hand: a round runs the whole frontier computation, and the frontier
// does not move. feed hands the agent every peer's digest of round r.
type roundRig struct {
	a       *Agent
	e       *nullEnv
	digests []wire.GossipDigest
}

const rigFiles, rigNodes = 8, 12

func newRoundRig(tb testing.TB) *roundRig {
	tb.Helper()
	n := &stableNode{gossipNode: gossipNode{st: store.New(1)}}
	var peers []id.NodeID
	for p := id.NodeID(2); p <= rigNodes; p++ {
		peers = append(peers, p)
	}
	n.a = New(Config{}, 1, peers, n, nil)
	rig := &roundRig{a: n.a, e: &nullEnv{rng: rand.New(rand.NewSource(1))}}
	for i := 0; i < rigFiles; i++ {
		f := id.FileID(fmt.Sprintf("f%d", i))
		n.files = append(n.files, f)
		r := n.st.Open(f)
		for w := id.NodeID(1); w <= rigNodes; w++ {
			r.Apply(wire.Update{File: f, Writer: w, Seq: 1, At: vv.Stamp(w) * 1e9})
		}
		for _, p := range peers {
			rig.digests = append(rig.digests, wire.GossipDigest{File: f, Origin: p, TTL: 1,
				VV: r.Vector().Counts(), Stable: countsOf(r.Vector(), map[id.NodeID]int{})})
		}
	}
	rig.feed(0)
	rig.a.Timer(rig.e, timerRound, nil) // learns the frontier once
	return rig
}

func (rig *roundRig) feed(round int) {
	for _, d := range rig.digests {
		d.Round = round
		rig.a.HandleDigest(rig.e, d.Origin, d)
	}
}

// TestRoundAllocations pins a gossip round whose frontier did not move. A
// round allocates only what it ships, since a sent message is never
// mutated: per file, the digest's counts vector (2 allocations); per peer,
// the batch slice as it grows and the message's interface box. A floor
// that did not move ships last round's map again, and keeping the
// advertised vectors, the permutations and the frontier scratch costs
// nothing.
func TestRoundAllocations(t *testing.T) {
	rig := newRoundRig(t)
	round := 1
	allocs := testing.AllocsPerRun(50, func() {
		round++
		rig.feed(round)
		rig.a.Timer(rig.e, timerRound, nil)
	})
	const perFile, perPeer = 2, 3
	if limit := float64(perFile*rigFiles + perPeer*(rigNodes-1)); allocs > limit {
		t.Fatalf("a round with an unmoved frontier = %v allocs, want at most %v", allocs, limit)
	}
}

// TestMovedFloorShipsNewMap: a digest ships the same rollback-floor map
// while the floor holds still, and a fresh one once a count moves; the map
// shipped before is left as it was, since receivers keep it.
func TestMovedFloorShipsNewMap(t *testing.T) {
	a := New(Config{}, 1, nil, nil, nil)
	sv := vv.New()
	sv.Tick(1, 1e9, 0)
	sv.Tick(2, 2e9, 0)
	first := a.floorOf("f", sv)
	if again := a.floorOf("f", sv.Clone()); reflect.ValueOf(again).Pointer() != reflect.ValueOf(first).Pointer() {
		t.Fatal("an unmoved floor shipped a new map")
	}
	sv.Tick(2, 3e9, 0)
	moved := a.floorOf("f", sv)
	if reflect.ValueOf(moved).Pointer() == reflect.ValueOf(first).Pointer() {
		t.Fatal("a moved floor shipped the old map")
	}
	if want := map[id.NodeID]int{1: 1, 2: 1}; !maps.Equal(first, want) {
		t.Fatalf("the map shipped first became %v, want %v", first, want)
	}
	if want := map[id.NodeID]int{1: 1, 2: 2}; !maps.Equal(moved, want) {
		t.Fatalf("moved floor shipped %v, want %v", moved, want)
	}
	sv.Tick(3, 4e9, 0) // a new writer moves the floor too
	if grown := a.floorOf("f", sv); len(grown) != 3 || len(moved) != 2 {
		t.Fatalf("a new writer shipped %v and left the last map %v", grown, moved)
	}
	if empty := a.floorOf("g", vv.New()); empty == nil {
		t.Fatal("an empty floor shipped as no floor")
	}
}

// TestDuplicateDigestAllocatesNothing pins the dedup path: a digest the
// agent has already seen costs a map lookup and nothing else.
func TestDuplicateDigestAllocatesNothing(t *testing.T) {
	rig := newRoundRig(t)
	d := rig.digests[0]
	if allocs := testing.AllocsPerRun(1000, func() { rig.a.HandleDigest(rig.e, d.Origin, d) }); allocs != 0 {
		t.Fatalf("duplicate HandleDigest = %v allocs, want 0", allocs)
	}
}

// TestPermuteDrawsWhatPermDraws: the agent's reusable permutation is
// rand.Perm's, and leaves the source in the same state.
func TestPermuteDrawsWhatPermDraws(t *testing.T) {
	a := New(Config{}, 1, nil, nil, nil)
	for seed := int64(0); seed < 20; seed++ {
		want, got := rand.New(rand.NewSource(seed)), &nullEnv{rng: rand.New(rand.NewSource(seed))}
		for n := 0; n < 40; n++ {
			if p, q := want.Perm(n), a.permute(got, n); !slices.Equal(p, q) {
				t.Fatalf("seed %d n %d: permute = %v, rand.Perm = %v", seed, n, q, p)
			}
		}
		if want.Int63() != got.rng.Int63() {
			t.Fatalf("seed %d: permute left the source in another state", seed)
		}
	}
}

// BenchmarkGossipRound is one round of the rig: every peer's digest of the
// round heard, then the round timer (digests out, eviction, frontier).
func BenchmarkGossipRound(b *testing.B) {
	rig := newRoundRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.feed(i + 2)
		rig.a.Timer(rig.e, timerRound, nil)
	}
}

// BenchmarkHandleDigest is one fresh digest (compared, counted, forwarded
// to two peers) against an 8-file, 12-writer replica set.
func BenchmarkHandleDigest(b *testing.B) {
	rig := newRoundRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := rig.digests[i%len(rig.digests)]
		d.Round, d.TTL = i/len(rig.digests)+2, 3
		rig.a.HandleDigest(rig.e, d.Origin, d)
		if i%len(rig.digests) == len(rig.digests)-1 {
			rig.a.Timer(rig.e, timerRound, nil) // evicts, as rounds do
		}
	}
}
