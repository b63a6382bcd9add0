package store

import (
	"testing"

	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

// fill applies n updates from each of the writers, round-robin, in
// arrival order.
func fill(r *Replica, writers []id.NodeID, n int) {
	seqs := make(map[id.NodeID]int)
	for i := 0; i < n*len(writers); i++ {
		w := writers[i%len(writers)]
		seqs[w]++
		r.Apply(wire.Update{File: r.File, Writer: w, Seq: seqs[w], At: vv.Stamp(i+1) * 1e6, Meta: float64(i)})
	}
}

func TestSnapshotOneWindowRoundTrip(t *testing.T) {
	src := NewReplica("f", 1)
	fill(src, []id.NodeID{2, 3}, 10)

	dst := NewReplica("f", 9)
	stream(t, src, dst, 1<<20, 1<<20) // the whole log in one window
	if got := vv.Compare(dst.Vector(), src.Vector()); got != vv.Equal {
		t.Fatalf("vectors after install: %v, want Equal", got)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("Len = %d, want %d", dst.Len(), src.Len())
	}
	// The installed replica must be a fully functional peer: it can ship
	// missing suffixes and apply further updates.
	empty := vv.New()
	if got := len(dst.MissingFrom(empty)); got != 20 {
		t.Fatalf("MissingFrom(empty) = %d updates, want 20", got)
	}
	if !dst.Apply(wire.Update{File: "f", Writer: 2, Seq: 11, At: 99e6}) {
		t.Fatal("apply after install rejected")
	}
	if dst.Vector().Count(2) != 11 {
		t.Fatalf("count(2) = %d, want 11", dst.Vector().Count(2))
	}
}

func TestSnapshotCarriesCompactionBase(t *testing.T) {
	src := NewReplica("f", 1)
	fill(src, []id.NodeID{2, 3}, 8)
	pruned := src.CompactBelow(map[id.NodeID]int{2: 5, 3: 5})
	if pruned == 0 {
		t.Fatal("compaction pruned nothing; test setup broken")
	}

	if _, base, _, _, _, _ := src.SnapshotWindow(0, 1<<20, 1<<20); base[2] == 0 && base[3] == 0 {
		t.Fatalf("base = %v, want the compacted prefix counts", base)
	}
	dst := NewReplica("f", 9)
	stream(t, src, dst, 1<<20, 1<<20)
	if dst.Compacted() != src.Compacted() {
		t.Fatalf("Compacted = %d, want %d", dst.Compacted(), src.Compacted())
	}
	if got := vv.Compare(dst.Vector(), src.Vector()); got != vv.Equal {
		t.Fatalf("vectors after install: %v, want Equal", got)
	}
	// Appending the next in-sequence update from each writer must work:
	// the installed base seeds the per-writer index correctly.
	next2 := src.Vector().Count(2) + 1
	if !dst.Apply(wire.Update{File: "f", Writer: 2, Seq: next2, At: 100e6}) {
		t.Fatal("post-install append rejected")
	}
	// WriteLocal must continue the owner's own numbering.
	u := dst.WriteLocal(101e6, "w", nil, 0)
	if u.Seq != dst.Vector().Count(9) {
		t.Fatalf("local write seq %d not reflected in vector", u.Seq)
	}
}

func TestDropPendingFrom(t *testing.T) {
	r := NewReplica("f", 1)
	// Gapped arrivals from writer 2 buffer as pending.
	r.Apply(wire.Update{File: "f", Writer: 2, Seq: 3, At: 1e6})
	r.Apply(wire.Update{File: "f", Writer: 2, Seq: 4, At: 2e6})
	r.Apply(wire.Update{File: "f", Writer: 3, Seq: 2, At: 3e6})
	if r.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", r.Pending())
	}
	if got := r.DropPendingFrom(2); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if r.Pending() != 1 {
		t.Fatalf("pending after drop = %d, want 1", r.Pending())
	}
	if got := r.DropPendingFrom(2); got != 0 {
		t.Fatalf("second drop = %d, want 0", got)
	}
}

// stream transfers src into dst through the chunked window protocol the
// join bootstrap uses: BeginSnapshot, windows of at most maxUpdates /
// maxBytes applied in order, FinishSnapshot with the final vector.
func stream(t *testing.T, src, dst *Replica, maxUpdates, maxBytes int) {
	t.Helper()
	vec, base, meta, start, ups, end := src.SnapshotWindow(0, maxUpdates, maxBytes)
	if !dst.BeginSnapshot(base, meta) {
		t.Fatal("BeginSnapshot refused on empty replica")
	}
	offset := start
	for {
		dst.ApplyAll(ups)
		offset += len(ups)
		if offset >= end {
			break
		}
		vec, _, _, _, ups, end = src.SnapshotWindow(offset, maxUpdates, maxBytes)
	}
	if !dst.FinishSnapshot(vec) {
		t.Fatal("FinishSnapshot refused after all chunks applied")
	}
}

func TestSnapshotWindowChunkedRoundTrip(t *testing.T) {
	src := NewReplica("f", 1)
	fill(src, []id.NodeID{2, 3}, 30)

	dst := NewReplica("f", 9)
	stream(t, src, dst, 7, 1<<20)
	if got := vv.Compare(dst.Vector(), src.Vector()); got != vv.Equal {
		t.Fatalf("vectors after chunked install: %v, want Equal", got)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("Len = %d, want %d", dst.Len(), src.Len())
	}
	// The streamed replica must be a fully functional peer.
	if !dst.Apply(wire.Update{File: "f", Writer: 2, Seq: src.Vector().Count(2) + 1, At: 999e6}) {
		t.Fatal("apply after chunked install rejected")
	}
	u := dst.WriteLocal(1000e6, "w", nil, 0)
	if u.Seq != dst.Vector().Count(9) {
		t.Fatalf("local write seq %d not reflected in vector", u.Seq)
	}
}

func TestSnapshotWindowRespectsByteBudget(t *testing.T) {
	src := NewReplica("f", 1)
	fat := make([]byte, 1024)
	for i := 1; i <= 20; i++ {
		src.Apply(wire.Update{File: "f", Writer: 2, Seq: i, At: vv.Stamp(i) * 1e6, Data: fat})
	}
	_, _, _, _, ups, end := src.SnapshotWindow(0, 100, 3*1024)
	if end != 20 {
		t.Fatalf("end = %d, want 20", end)
	}
	// 1024B payload + overhead per update against a 3KiB budget: the
	// window must stop well short of the update cap.
	if len(ups) == 0 || len(ups) > 4 {
		t.Fatalf("window carried %d updates against a 3KiB byte budget", len(ups))
	}
}

func TestSnapshotWindowChunkedAfterCompaction(t *testing.T) {
	src := NewReplica("f", 1)
	fill(src, []id.NodeID{2, 3}, 8)
	if src.CompactBelow(map[id.NodeID]int{2: 5, 3: 5}) == 0 {
		t.Fatal("compaction pruned nothing; test setup broken")
	}
	dst := NewReplica("f", 9)
	stream(t, src, dst, 3, 1<<20)
	if dst.Compacted() != src.Compacted() {
		t.Fatalf("Compacted = %d, want %d", dst.Compacted(), src.Compacted())
	}
	if got := vv.Compare(dst.Vector(), src.Vector()); got != vv.Equal {
		t.Fatalf("vectors: %v, want Equal", got)
	}
	next2 := src.Vector().Count(2) + 1
	if !dst.Apply(wire.Update{File: "f", Writer: 2, Seq: next2, At: 100e6}) {
		t.Fatal("post-install append rejected")
	}
}

func TestSnapshotWindowIdempotentRetry(t *testing.T) {
	// Re-requesting a window (a retry after a lost reply) must be
	// harmless: Apply dedups the overlap.
	src := NewReplica("f", 1)
	fill(src, []id.NodeID{2}, 10)
	dst := NewReplica("f", 9)
	vec, base, meta, _, ups, _ := src.SnapshotWindow(0, 4, 1<<20)
	if !dst.BeginSnapshot(base, meta) {
		t.Fatal("begin refused")
	}
	dst.ApplyAll(ups)
	dst.ApplyAll(ups) // duplicate chunk
	_, _, _, _, ups2, _ := src.SnapshotWindow(4, 4, 1<<20)
	dst.ApplyAll(ups2)
	_, _, _, _, ups3, _ := src.SnapshotWindow(8, 4, 1<<20)
	dst.ApplyAll(ups3)
	if !dst.FinishSnapshot(vec) {
		t.Fatal("finish refused after duplicate chunk")
	}
	if dst.Len() != 10 {
		t.Fatalf("Len = %d, want 10", dst.Len())
	}
}

func TestBeginSnapshotRefusesNonEmpty(t *testing.T) {
	dst := NewReplica("f", 9)
	dst.WriteLocal(1e6, "w", nil, 0)
	src := NewReplica("f", 1)
	fill(src, []id.NodeID{2}, 3)
	if src.CompactBelow(map[id.NodeID]int{2: 2}) == 0 {
		t.Fatal("compaction pruned nothing; test setup broken")
	}
	_, base, meta, _, _, _ := src.SnapshotWindow(0, 1<<20, 1<<20)
	if dst.BeginSnapshot(base, meta) {
		t.Fatal("BeginSnapshot must refuse a non-empty replica")
	}
	if dst.Compacted() != 0 || dst.Len() != 1 {
		t.Fatalf("refused begin mutated the replica: Compacted = %d, Len = %d", dst.Compacted(), dst.Len())
	}
}

func TestFinishSnapshotRefusesIncomplete(t *testing.T) {
	src := NewReplica("f", 1)
	fill(src, []id.NodeID{2}, 6)
	vec, base, meta, _, ups, _ := src.SnapshotWindow(0, 3, 1<<20)
	dst := NewReplica("f", 9)
	if !dst.BeginSnapshot(base, meta) {
		t.Fatal("begin refused")
	}
	dst.ApplyAll(ups) // only the first window
	if dst.FinishSnapshot(vec) {
		t.Fatal("FinishSnapshot must refuse while chunks are missing")
	}
	// ... and with a foreign writer the sender never mentioned.
	dst2 := NewReplica("g", 9)
	dst2.Apply(wire.Update{File: "g", Writer: 7, Seq: 1, At: 1e6})
	if dst2.FinishSnapshot(vv.New()) {
		t.Fatal("FinishSnapshot must refuse when the replica holds writers the vector lacks")
	}
}
