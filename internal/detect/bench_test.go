package detect

import (
	"testing"

	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/quantify"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

// benchPair builds the detector of node 1 over a replica of 8 writers ×
// 25 updates, and two writer vectors: one equal to the replica (the common
// case) and one concurrent with it (node 2 is one update ahead, node 1
// one behind).
func benchPair(b *testing.B) (d *Detector, rep *store.Replica, equal, concurrent *vv.Vector) {
	ids := []id.NodeID{1, 2}
	st := store.New(1)
	rep = st.Open(board)
	for i := 0; i < 200; i++ {
		w := id.NodeID(i%8 + 1)
		rep.Apply(wire.Update{File: board, Writer: w, Seq: i/8 + 1, At: vv.Stamp(i+1) * 1e9, Meta: float64(i)})
	}
	d = New(Config{}, 1, overlay.NewStatic(ids, map[id.FileID][]id.NodeID{board: ids}), st, quantify.Default())
	equal = rep.Vector()
	concurrent = rep.Vector()
	concurrent.Tick(2, 1e12, 7)
	rep.WriteLocal(1e12, "w", nil, 8)
	if vv.Compare(rep.LiveVector(), concurrent) != vv.Concurrent {
		b.Fatal("probe is not concurrent with the replica")
	}
	equal.Tick(1, 1e12, 8)
	if vv.Compare(rep.LiveVector(), equal) != vv.Equal {
		b.Fatal("probe is not equal to the replica")
	}
	return d, rep, equal, concurrent
}

// BenchmarkHandleRequest measures the peer side of a probe: trim the
// replica's vector above the writer's counts and reply. The handler reads
// the replica's vector in place, so a copy creeping back shows up in
// allocs/op.
func BenchmarkHandleRequest(b *testing.B) {
	d, _, equal, concurrent := benchPair(b)
	for _, c := range []struct {
		name string
		vec  *vv.Vector
	}{{"equal", equal}, {"concurrent", concurrent}} {
		b.Run(c.name, func(b *testing.B) {
			m := wire.DetectRequest{File: board, Token: 1, VV: c.vec.Counts()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.HandleRequest(envStub{}, 2, m)
			}
		})
	}
}

// BenchmarkHandleReply measures the writer side: compare the peer's reply
// with the probe's vector and, when they differ, select the reference and
// apply Formula 1. The probe never finalizes, so every iteration scores.
func BenchmarkHandleReply(b *testing.B) {
	d, rep, equal, concurrent := benchPair(b)
	for _, c := range []struct {
		name string
		vec  *vv.Vector
	}{{"equal", equal}, {"concurrent", concurrent}} {
		b.Run(c.name, func(b *testing.B) {
			d.inflight[1] = &probe{file: board, vv: c.vec, expect: b.N + 1, worst: 1}
			m := wire.DetectReply{File: board, Token: 1, VV: rep.LiveVector().Above(c.vec)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.HandleReply(envStub{}, 2, m)
			}
		})
	}
}
