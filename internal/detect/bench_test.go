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

// BenchmarkHandleRequest measures the peer side of a probe against a
// replica of 8 writers × 25 updates: a probe equal to the replica (the
// common case: compare, reply with counts) and a concurrent one (also
// reference selection and Formula 1). The handler reads the replica's
// vector in place, so a copy creeping back shows up in allocs/op.
func BenchmarkHandleRequest(b *testing.B) {
	ids := []id.NodeID{1, 2}
	st := store.New(1)
	rep := st.Open(board)
	for i := 0; i < 200; i++ {
		w := id.NodeID(i%8 + 1)
		rep.Apply(wire.Update{File: board, Writer: w, Seq: i/8 + 1, At: vv.Stamp(i+1) * 1e9, Meta: float64(i)})
	}
	d := New(Config{}, 1, overlay.NewStatic(ids, map[id.FileID][]id.NodeID{board: ids}), st, quantify.Default())
	equal := rep.Vector()
	concurrent := rep.Vector()
	concurrent.Tick(2, 1e12, 7)
	rep.WriteLocal(1e12, "w", nil, 8)
	if vv.Compare(rep.LiveVector(), concurrent) != vv.Concurrent {
		b.Fatal("probe is not concurrent with the replica")
	}
	equal.Tick(1, 1e12, 8)
	if vv.Compare(rep.LiveVector(), equal) != vv.Equal {
		b.Fatal("probe is not equal to the replica")
	}
	for _, c := range []struct {
		name string
		vec  *vv.Vector
	}{{"equal", equal}, {"concurrent", concurrent}} {
		b.Run(c.name, func(b *testing.B) {
			m := wire.DetectRequest{File: board, Token: 1, VV: c.vec}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.HandleRequest(envStub{}, 2, m)
			}
		})
	}
}
