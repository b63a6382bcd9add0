package store

import (
	"reflect"
	"testing"

	"idea/internal/id"
	"idea/internal/wire"
)

// viewFixture is a replica with two writers, spare slice capacity (so an
// in-place rewrite would land inside earlier views), an empty-state
// checkpoint (token 1) and a mid-log checkpoint (token 2).
func viewFixture() *Replica {
	r := NewReplica(fBoard, nA)
	r.Checkpoint(1)
	for i := 1; i <= 6; i++ {
		if i == 4 {
			r.Checkpoint(2)
		}
		r.WriteLocal(sec(float64(i)), "w", []byte{byte(i)}, float64(i))
		r.Apply(wire.Update{File: fBoard, Writer: nB, Seq: i, At: sec(float64(i)) + 1, Meta: float64(-i), Data: []byte{byte(i)}})
	}
	return r
}

// viewContents deep-copies what a view shows, writer by writer.
func viewContents(v View) map[id.NodeID][]wire.Update {
	out := make(map[id.NodeID][]wire.Update)
	for _, w := range v.Writers() {
		out[w] = append([]wire.Update(nil), v.Range(w, 0, 1<<30)...)
	}
	return out
}

// TestViewsNeverChange: a Log or View handed out before any mutation reads
// element-for-element the same afterwards — including after the mutation
// is followed by more writes, which is when an in-place rewrite would
// overwrite elements the holder can still see.
func TestViewsNeverChange(t *testing.T) {
	more := func(r *Replica) {
		for i := 0; i < 4; i++ {
			r.WriteLocal(sec(float64(100+i)), "more", []byte("m"), 99)
			r.Apply(wire.Update{File: fBoard, Writer: nB, Seq: r.vec.Count(nB) + 1, At: sec(float64(100 + i)), Meta: 98})
		}
	}
	steps := []struct {
		name   string
		mutate func(t *testing.T, r *Replica)
	}{
		{"Apply", func(_ *testing.T, r *Replica) {
			r.Apply(wire.Update{File: fBoard, Writer: nB, Seq: 7, At: sec(50)})
		}},
		{"WriteLocal", func(_ *testing.T, r *Replica) { r.WriteLocal(sec(50), "w", nil, 50) }},
		{"Rollback", func(t *testing.T, r *Replica) {
			if _, err := r.Rollback(2); err != nil {
				t.Fatal(err)
			}
		}},
		{"AdoptImage/invalidate", func(t *testing.T, r *Replica) {
			img := r.Vector()
			img.TruncateWriter(nA, 2)
			img.TruncateWriter(nB, 4)
			if _, inv := r.AdoptImage(img, nil, true); inv != 6 {
				t.Fatalf("invalidated %d, want 6", inv)
			}
		}},
		{"CompactBelow", func(t *testing.T, r *Replica) {
			r.DropCheckpoint(1)
			r.DropCheckpoint(2)
			if n := r.CompactBelow(map[id.NodeID]int{nA: 3, nB: 3}); n == 0 {
				t.Fatal("nothing compacted")
			}
		}},
		{"SnapshotTransfer", func(t *testing.T, r *Replica) {
			if _, err := r.Rollback(1); err != nil || r.Len() != 0 {
				t.Fatalf("rollback to empty: len %d, err %v", r.Len(), err)
			}
			stream(t, viewFixture(), r, 2, 1<<20)
		}},
	}
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			r := viewFixture()
			log, view := r.Log(), r.View()
			wantLog := append([]wire.Update(nil), log...)
			wantView := viewContents(view)
			st.mutate(t, r)
			more(r)
			if !reflect.DeepEqual(log, wantLog) {
				t.Fatalf("Log changed under %s:\n got %v\nwant %v", st.name, log, wantLog)
			}
			if got := viewContents(view); !reflect.DeepEqual(got, wantView) {
				t.Fatalf("View changed under %s:\n got %v\nwant %v", st.name, got, wantView)
			}
		})
	}
}

// TestAppendToLogLeavesReplicaAlone: appending to a Log result — what the
// whiteboard does to compute post-write metadata — never reaches the
// replica, and the replica's next write never reaches the appended copy.
func TestAppendToLogLeavesReplicaAlone(t *testing.T) {
	r := viewFixture()
	before := r.Len()
	grown := append(r.Log(), wire.Update{Op: "probe"})
	if r.Len() != before || len(r.Log()) != before {
		t.Fatalf("append grew the replica to %d", r.Len())
	}
	u := r.WriteLocal(sec(60), "real", nil, 60)
	if got := grown[len(grown)-1]; got.Op != "probe" {
		t.Fatalf("replica write overwrote the appended copy: %+v", got)
	}
	if got := r.Log()[r.Len()-1]; got.Key() != u.Key() || got.Op != "real" {
		t.Fatalf("replica's last update = %+v, want the real write", got)
	}
}

// TestViewRange: Range clamps to the live, compacted-below base window of
// each writer.
func TestViewRange(t *testing.T) {
	r := viewFixture()
	r.DropCheckpoint(1)
	r.DropCheckpoint(2)
	r.CompactBelow(map[id.NodeID]int{nA: 2, nB: 2})
	v := r.View()
	seqs := func(us []wire.Update) (out []int) {
		for _, u := range us {
			out = append(out, u.Seq)
		}
		return out
	}
	for _, c := range []struct {
		after, upTo int
		want        []int
	}{
		{0, 1 << 30, []int{3, 4, 5, 6}}, // compacted prefix is not in the view
		{3, 5, []int{4, 5}},
		{5, 5, nil},
		{6, 9, nil},
		{1, 3, []int{3}},
	} {
		if got := seqs(v.Range(nA, c.after, c.upTo)); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Range(%d, %d) = %v, want %v", c.after, c.upTo, got, c.want)
		}
	}
	if got := v.Writers(); !reflect.DeepEqual(got, []id.NodeID{nA, nB}) {
		t.Fatalf("Writers = %v", got)
	}
	if got := v.Range(nA+nB, 0, 10); got != nil {
		t.Fatalf("unknown writer range = %v", got)
	}
}
