package resolve

import (
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

// deepFixture is a four-member top layer sharing depth updates from all
// four writers. The initiator (node 1) holds them as a live log; the other
// members hold the same history compacted away, as after a snapshot
// bootstrap, which keeps the fixture small without changing what the
// initiator's session touches.
func deepFixture(tb testing.TB, depth int) *fixture {
	tb.Helper()
	f := build(tb, 4, Config{}, 71)
	rep := f.nodes[1].st.Open(board)
	base := make(map[id.NodeID]int)
	for i := 0; i < depth; i++ {
		w := id.NodeID(1 + i%4)
		base[w]++
		rep.Apply(wire.Update{File: board, Writer: w, Seq: base[w], At: vv.Stamp(i+1) * 1e6})
	}
	for _, nid := range f.ids[1:] {
		m := f.nodes[nid].st.Open(board)
		if !m.BeginSnapshot(base, 0) || !m.FinishSnapshot(rep.Vector()) {
			tb.Fatalf("node %v: snapshot bootstrap refused", nid)
		}
	}
	return f
}

// session opens a 3-update gap — node 4 writes three updates no one else
// has — and runs one active resolution from node 1 to completion.
func (f *fixture) session(tb testing.TB) {
	now := f.c.Elapsed()
	f.c.CallAt(now, 4, func(e env.Env) {
		r := f.nodes[4].st.Open(board)
		for i := 0; i < 3; i++ {
			r.WriteLocal(e.Stamp(), "w", nil, 0)
		}
	})
	f.c.CallAt(now+time.Millisecond, 1, func(e env.Env) { f.nodes[1].res.RequestActive(e, board) })
	done := f.nodes[1].res.Resolutions
	f.c.RunFor(time.Second)
	if f.nodes[1].res.Resolutions != done+1 {
		tb.Fatal("the session did not finish")
	}
}

// BenchmarkResolveSessionDeep measures one 4-member session closing a
// 3-update gap at log depth 1k and 100k. A session reads a view of the
// initiator's per-writer index, so both depths cost the same.
func BenchmarkResolveSessionDeep(b *testing.B) {
	for _, c := range []struct {
		name  string
		depth int
	}{{"depth=1k", 1_000}, {"depth=100k", 100_000}} {
		b.Run(c.name, func(b *testing.B) {
			f := deepFixture(b, c.depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.session(b)
			}
		})
	}
}

// TestResolveSessionAllocsIndependentOfDepth: a session at log depth 100k
// allocates at most twice what one at 1k does. Copying the log into the
// session pool made it grow linearly with depth.
func TestResolveSessionAllocsIndependentOfDepth(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-deep replica")
	}
	allocs := func(depth int) float64 {
		f := deepFixture(t, depth)
		f.session(t) // warm up maps and timers
		got := testing.AllocsPerRun(10, func() { f.session(t) })
		// The image reached every member: all four hold node 4's writes.
		want := f.nodes[4].st.Open(board).Vector().Count(4)
		for _, nid := range f.ids {
			if c := f.nodes[nid].st.Open(board).Vector().Count(4); c != want {
				t.Fatalf("depth %d: node %v holds %d of node 4's updates, want %d", depth, nid, c, want)
			}
		}
		return got
	}
	shallow, deep := allocs(1_000), allocs(100_000)
	t.Logf("allocs per session: depth 1k %.0f, depth 100k %.0f", shallow, deep)
	if deep > 2*shallow {
		t.Fatalf("a session at depth 100k allocates %.0f, more than twice the %.0f at 1k", deep, shallow)
	}
}
