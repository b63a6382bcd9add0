package store

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

func BenchmarkWriteLocal(b *testing.B) {
	r := NewReplica(fBoard, nA)
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.WriteLocal(vv.Stamp(i)*1e6, "draw", payload, float64(i))
	}
}

func BenchmarkApplyRemote(b *testing.B) {
	src := NewReplica(fBoard, nB)
	dst := NewReplica(fBoard, nA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := src.WriteLocal(vv.Stamp(i)*1e6, "draw", nil, 0)
		b.StartTimer()
		dst.Apply(u)
	}
}

// preloadUpdates is one live3-readmix node's set-up: files × depth
// updates, written round-robin by three writers.
func preloadUpdates(files, depth int) [][]wire.Update {
	payload := make([]byte, 256)
	out := make([][]wire.Update, files)
	for f := range out {
		file := id.FileID(fmt.Sprintf("f%d", f))
		for i := 0; i < depth; i++ {
			w := id.NodeID(i%3 + 1)
			out[f] = append(out[f], wire.Update{File: file, Writer: w, Seq: i/3 + 1, At: vv.Stamp(i) * 1000, Meta: 1, Op: "w", Data: payload})
		}
	}
	return out
}

// BenchmarkPreload applies one readmix node's preload — 16 files × 2000
// updates from 3 writers — through Replica.Apply into a store journaling
// to a WAL at group commit 8.
func BenchmarkPreload(b *testing.B) {
	pre := preloadUpdates(16, 2000)
	root := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(root, "wal-*")
		if err != nil {
			b.Fatal(err)
		}
		w, err := OpenWAL(dir)
		if err != nil {
			b.Fatal(err)
		}
		w.SetGroupCommit(8)
		st := New(nA)
		st.SetJournal(w)
		b.StartTimer()
		for _, us := range pre {
			r := st.Open(us[0].File)
			for _, u := range us {
				r.Apply(u)
			}
		}
		b.StopTimer()
		w.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// TestApplyCopiesEachUpdateOnce bounds what applying an update allocates:
// 50k updates from 3 writers, with a compaction every 5k that keeps the
// newest 500 per writer live. A replica holding each update once, in a
// log that doubles and that compaction reallocates with room to double,
// allocates under 500 B per apply here; one that also copies each update
// into a per-writer index, both growing by append's large-slice step,
// allocates about 950 B.
func TestApplyCopiesEachUpdateOnce(t *testing.T) {
	const n = 50_000
	us := make([]wire.Update, n)
	for i := range us {
		us[i] = wire.Update{File: fBoard, Writer: id.NodeID(i%3 + 1), Seq: i/3 + 1, At: vv.Stamp(i+1) * 1000, Meta: 1, Op: "w"}
	}
	stable := make(map[id.NodeID]int, 3)
	r := NewReplica(fBoard, nA)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, u := range us {
		r.Apply(u)
		if (i+1)%5000 == 0 {
			for w := id.NodeID(1); w <= 3; w++ {
				stable[w] = r.vec.Count(w) - 500
			}
			r.CompactBelow(stable)
		}
	}
	runtime.ReadMemStats(&after)
	if r.Len() != n || r.Compacted() != n-1500 {
		t.Fatalf("Len %d, Compacted %d; want %d, %d", r.Len(), r.Compacted(), n, n-1500)
	}
	perUpdate := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("apply allocates %.0f B per update", perUpdate)
	if perUpdate > 600 {
		t.Fatalf("apply allocates %.0f B per update, want at most 600", perUpdate)
	}
}

func BenchmarkMissingFrom(b *testing.B) {
	r := NewReplica(fBoard, nA)
	for i := 0; i < 500; i++ {
		r.WriteLocal(vv.Stamp(i)*1e6, "draw", nil, 0)
	}
	behind := NewReplica(fBoard, nB)
	behind.ApplyAll(r.Log()[:250])
	remote := behind.Vector()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MissingFrom(remote)
	}
}

// bigReplica builds a replica holding n updates from several writers and
// a remote vector missing the newest `missing` per writer — the
// steady-state anti-entropy shape at scale.
func bigReplica(n, writers, missing int) (*Replica, *vv.Vector) {
	r := NewReplica(fBoard, nA)
	seqs := make(map[int]int, writers)
	for i := 0; i < n; i++ {
		w := i%writers + 1
		seqs[w]++
		r.Apply(wire.Update{File: fBoard, Writer: nA + id.NodeID(w), Seq: seqs[w], At: vv.Stamp(i+1) * 1e6})
	}
	remote := r.Vector()
	for w := 1; w <= writers; w++ {
		remote.TruncateWriter(nA+id.NodeID(w), seqs[w]-missing)
	}
	return r, remote
}

// BenchmarkMissingFrom50k is the headline indexed-anti-entropy benchmark:
// 50k applied updates, remote missing a small per-writer suffix. With the
// per-writer index this costs O(missing); the old full-log scan + sort
// cost O(total·log total) per exchange.
func BenchmarkMissingFrom50k(b *testing.B) {
	r, remote := bigReplica(50_000, 4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.MissingFrom(remote); len(got) != 16 {
			b.Fatalf("missing = %d, want 16", len(got))
		}
	}
}

// TestMissingFromCostIndependentOfDepth holds anti-entropy to O(missing):
// with the same 16 updates missing, a 100k-deep replica may cost at most
// 20x a 1k-deep one. The per-writer index reads about 1x; a full log
// scan reads about 100x.
func TestMissingFromCostIndependentOfDepth(t *testing.T) {
	nsPerOp := func(depth int) int64 {
		r, remote := bigReplica(depth, 4, 4)
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := r.MissingFrom(remote); len(got) != 16 {
					b.Fatalf("missing = %d, want 16", len(got))
				}
			}
		}).NsPerOp()
	}
	shallow, deep := nsPerOp(1_000), nsPerOp(100_000)
	t.Logf("MissingFrom: %d ns/op at depth 1k, %d ns/op at depth 100k", shallow, deep)
	if deep > 20*shallow {
		t.Fatalf("MissingFrom at depth 100k costs %d ns/op, more than 20x the %d ns/op at depth 1k", deep, shallow)
	}
}

func BenchmarkApplyOutOfOrder(b *testing.B) {
	// Worst-case reordering: each writer's pair arrives inverted, so every
	// other update is buffered and drained.
	dst := NewReplica(fBoard, nA)
	b.ReportAllocs()
	for i := 0; i < b.N; i += 2 {
		seq := i/2 + 1
		dst.Apply(wire.Update{File: fBoard, Writer: nB, Seq: seq + 1, At: vv.Stamp(i) * 1e6})
		dst.Apply(wire.Update{File: fBoard, Writer: nB, Seq: seq, At: vv.Stamp(i) * 1e6})
	}
}

func BenchmarkCompactBelow(b *testing.B) {
	frontier := map[id.NodeID]int{nA + 1: 10_000, nA + 2: 10_000, nA + 3: 10_000, nA + 4: 10_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, _ := bigReplica(40_000, 4, 0)
		b.StartTimer()
		r.CompactBelow(frontier)
	}
}

func BenchmarkCheckpointRollback(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewReplica(fBoard, nA)
		for j := 0; j < 50; j++ {
			r.WriteLocal(vv.Stamp(j)*1e6, "draw", nil, 0)
		}
		b.StartTimer()
		r.Checkpoint(1)
		for j := 0; j < 10; j++ {
			r.WriteLocal(vv.Stamp(100+j)*1e6, "draw", nil, 0)
		}
		if _, err := r.Rollback(1); err != nil {
			b.Fatal(err)
		}
	}
}
