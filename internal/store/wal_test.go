package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/vv"
	"idea/internal/wire"
)

func TestWALAppendRecover(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		u := wire.Update{File: fBoard, Writer: nA, Seq: i, At: vv.Stamp(i) * 1e9, Op: "w"}
		if err := w.AppendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(fBoard); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	log, err := w2.Recover(fBoard)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[2].Seq != 3 {
		t.Fatalf("recovered %d updates", len(log))
	}
}

func TestWALRollbackMarker(t *testing.T) {
	dir := t.TempDir()
	w, _ := OpenWAL(dir)
	for i := 1; i <= 4; i++ {
		w.AppendUpdate(wire.Update{File: fBoard, Writer: nA, Seq: i, Op: "w"})
	}
	if err := w.AppendRollback(fBoard, 2); err != nil {
		t.Fatal(err)
	}
	w.AppendUpdate(wire.Update{File: fBoard, Writer: nB, Seq: 1, Op: "w"})
	w.Close()

	w2, _ := OpenWAL(dir)
	log, err := w2.Recover(fBoard)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 {
		t.Fatalf("recovered %d, want 3 (2 kept + 1 after rollback)", len(log))
	}
	if log[2].Writer != nB {
		t.Fatalf("post-rollback update lost: %v", log)
	}
}

func TestWALRecoverMissingFile(t *testing.T) {
	w, _ := OpenWAL(t.TempDir())
	log, err := w.Recover("nothing")
	if err != nil || log != nil {
		t.Fatalf("missing log: %v, %v", log, err)
	}
}

func TestWALPathSanitized(t *testing.T) {
	w, _ := OpenWAL(t.TempDir())
	p := w.path("a/b:c board%")
	if filepath.Dir(p) != w.dir {
		t.Fatalf("log %q escaped the journal directory", p)
	}
	if base := filepath.Base(p); base != "a%2Fb:c%20board%25.wal" {
		t.Fatalf("escaped name = %q", base)
	}
}

func TestWALDistinctFilesNeverShareALog(t *testing.T) {
	// Regression: "a/b" and "a_b" both mapped to a_b.wal, where two
	// record streams interleaved and recovery dropped one of them.
	dir := t.TempDir()
	w := OpenWALMust(t, dir)
	ids := []id.FileID{"a/b", "a_b", "a%2Fb", "../up", "plain"}
	for i, f := range ids {
		for s := 1; s <= i+1; s++ {
			if err := w.AppendUpdate(wire.Update{File: f, Writer: nA, Seq: s, Op: "w"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := OpenWALMust(t, dir)
	for i, f := range ids {
		log, err := w2.Recover(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(log) != i+1 {
			t.Fatalf("file %q recovered %d updates, want %d", f, len(log), i+1)
		}
		for _, u := range log {
			if u.File != f {
				t.Fatalf("file %q recovered an update of %q", f, u.File)
			}
		}
	}
	got, err := w2.Files()
	if err != nil {
		t.Fatal(err)
	}
	want := map[id.FileID]bool{}
	for _, f := range ids {
		want[f] = true
	}
	for _, f := range got {
		if !want[f] {
			t.Fatalf("Files() returned %q, which was never journaled", f)
		}
		delete(want, f)
	}
	if len(want) != 0 {
		t.Fatalf("Files() = %q, missing %v", got, want)
	}
}

// writeLog journals n updates of writer nA to fBoard in dir and returns
// the log's bytes and the byte offset at which each record starts (plus
// the end offset as the last element).
func writeLog(t testing.TB, dir string, n int) (image []byte, bounds []int) {
	t.Helper()
	w := OpenWALMust(t, dir)
	path := w.path(fBoard)
	for i := 1; i <= n; i++ {
		st, err := os.Stat(path)
		if err == nil {
			bounds = append(bounds, int(st.Size()))
		} else {
			bounds = append(bounds, len(walMagic))
		}
		u := wire.Update{File: fBoard, Writer: nA, Seq: i, At: sec(float64(i)), Op: "w", Data: []byte{byte(i)}}
		if err := w.AppendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return image, append(bounds, len(image))
}

func TestWALAppendAfterTornTail(t *testing.T) {
	// Regression: after a torn tail and a restart, new records were
	// appended behind the torn bytes; the next recovery stopped at the
	// tear and returned 2 of 6 updates with a nil error.
	dir := t.TempDir()
	image, _ := writeLog(t, dir, 3)
	w := OpenWALMust(t, dir)
	path := w.path(fBoard)
	if err := os.Truncate(path, int64(len(image)-3)); err != nil {
		t.Fatal(err)
	}
	log, err := w.Recover(fBoard)
	if err != nil || len(log) != 2 {
		t.Fatalf("recovered %d updates from the torn log (err %v), want 2", len(log), err)
	}
	for i := 3; i <= 6; i++ {
		if err := w.AppendUpdate(wire.Update{File: fBoard, Writer: nA, Seq: i, Op: "w"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(fBoard); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	log, err = OpenWALMust(t, dir).Recover(fBoard)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 6 {
		t.Fatalf("second restart recovered %d updates, want all 6", len(log))
	}
	for i, u := range log {
		if u.Seq != i+1 {
			t.Fatalf("recovered seqs out of order: %v", log)
		}
	}
}

func TestWALAppendCutsTornTailWithoutRecover(t *testing.T) {
	// A node that appends to an existing log without replaying it first
	// must still not write behind a tear.
	dir := t.TempDir()
	image, _ := writeLog(t, dir, 3)
	w := OpenWALMust(t, dir)
	if err := os.Truncate(w.path(fBoard), int64(len(image)-3)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendUpdate(wire.Update{File: fBoard, Writer: nA, Seq: 3, Op: "again"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	log, err := OpenWALMust(t, dir).Recover(fBoard)
	if err != nil || len(log) != 3 || log[2].Op != "again" {
		t.Fatalf("recovered %v (err %v), want 3 updates ending in the re-append", log, err)
	}
}

func TestWALTruncatedAtEveryOffset(t *testing.T) {
	// The torn-tail half of the recovery contract: wherever a crash cuts
	// the last two records, recovery returns exactly the intact prefix,
	// reports no error, and leaves the file ending at a record boundary.
	image, bounds := writeLog(t, t.TempDir(), 5)
	for cut := bounds[3]; cut <= len(image); cut++ {
		want := 3
		for i := 4; i < len(bounds) && bounds[i] <= cut; i++ {
			want = i
		}
		dir := t.TempDir()
		w := OpenWALMust(t, dir)
		path := w.path(fBoard)
		if err := os.WriteFile(path, image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := w.Recover(fBoard)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(log) != want || (want > 0 && log[want-1].Seq != want) {
			t.Fatalf("cut at %d: recovered %d updates, want %d", cut, len(log), want)
		}
		if st, _ := os.Stat(path); int(st.Size()) != bounds[want] {
			t.Fatalf("cut at %d: log left %d bytes long, want the record boundary %d", cut, st.Size(), bounds[want])
		}
	}
}

func TestWALMidLogCorruptionIsAnError(t *testing.T) {
	// The corruption half: damage to a record that intact records follow
	// is reported with its byte offset, never as a shorter log. Every
	// byte of the record is tried, its length and checksum included.
	image, bounds := writeLog(t, t.TempDir(), 5)
	for at := bounds[2]; at < bounds[3]; at++ {
		bad := bytes.Clone(image)
		bad[at] ^= 0x41
		dir := t.TempDir()
		w := OpenWALMust(t, dir)
		if err := os.WriteFile(w.path(fBoard), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := w.Recover(fBoard)
		if err == nil {
			t.Fatalf("byte %d flipped: recovered %d updates and no error", at, len(log))
		}
		if want := fmt.Sprintf("byte offset %d ", bounds[2]); !strings.Contains(err.Error(), want) {
			t.Fatalf("byte %d flipped: error %q does not name %q", at, err, want)
		}
		if log != nil {
			t.Fatalf("byte %d flipped: an error came with %d updates", at, len(log))
		}
	}
}

func TestWALRecoverBoundsItsSearch(t *testing.T) {
	// Telling a torn tail from corruption means looking for an intact
	// record behind the damage. Payload bytes can be crafted so that every
	// ninth offset looks like the header of an 8 KiB record; recovery must
	// stop checksumming them after a few times the log's size and report
	// corruption, not spend minutes per megabyte.
	image, _ := writeLog(t, t.TempDir(), 2)
	unit := []byte{0x00, 0x20, 0, 0, 1, 2, 3, 4, 'u'}
	image = append(image, bytes.Repeat(unit, 1<<15)...)
	w := OpenWALMust(t, t.TempDir())
	if err := os.WriteFile(w.path(fBoard), image, 0o644); err != nil {
		t.Fatal(err)
	}
	if log, err := w.Recover(fBoard); err == nil {
		t.Fatalf("recovered %d updates and no error from a log with a crafted tail", len(log))
	}
}

func TestWALRejectsLogWithoutHeader(t *testing.T) {
	// A log of the earlier gob format (or any foreign file) is rejected,
	// and the first append sets it aside so the journal restarts in step
	// with the replica, which restarts empty.
	dir := t.TempDir()
	w := OpenWALMust(t, dir)
	path := w.path(fBoard)
	old := []byte("\x2c\xff\x81\x03\x01\x01\x09walRecord\x01\xff\x82\x00\x01\x03")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if log, err := w.Recover(fBoard); err == nil || log != nil {
		t.Fatalf("headerless log recovered as %v, %v", log, err)
	}
	st := New(nA)
	if err := w.Replay(st); err == nil {
		t.Fatal("Replay did not report the rejected log")
	}
	st.Open(fBoard).WriteLocal(sec(1), "w", nil, 0)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if kept, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(kept, old) {
		t.Fatalf("rejected log not set aside intact: %v", err)
	}
	log, err := OpenWALMust(t, dir).Recover(fBoard)
	if err != nil || len(log) != 1 {
		t.Fatalf("restarted journal recovered %v, %v; want the one new write", log, err)
	}
}

func FuzzWALRecover(f *testing.F) {
	image, bounds := writeLog(f, f.TempDir(), 3)
	f.Add(image)
	f.Add(image[:len(image)-3])
	f.Add(image[:bounds[1]+2])
	flipped := bytes.Clone(image)
	flipped[bounds[1]+9] ^= 1
	f.Add(flipped)
	f.Add(appendRecord(bytes.Clone(image), 'r', wire.Update{}, 1))
	f.Add([]byte(walMagic))
	f.Add([]byte("IDEA"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// No record reaches the decoder unless the checksum in front of it
		// matches. body aliases data, so its capacity gives its offset.
		data = data[:len(data):len(data)]
		end, err := scanLog(data, func(body []byte) error {
			off := len(data) - cap(body)
			if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off-4:]) {
				t.Fatalf("record at %d visited with a failed checksum", off-recHeader)
			}
			return nil
		})
		if end < 0 || end > len(data) {
			t.Fatalf("scan ended at %d of %d (err %v)", end, len(data), err)
		}

		// Whatever the bytes, recovery either rejects the log or returns
		// a prefix that survives an append and a second restart.
		dir := t.TempDir()
		w := OpenWALMust(t, dir)
		if err := os.WriteFile(w.path(fBoard), data, 0o644); err != nil {
			t.Fatal(err)
		}
		log, err := w.Recover(fBoard)
		if err != nil {
			if log != nil {
				t.Fatalf("error %v came with %d updates", err, len(log))
			}
			return
		}
		next := wire.Update{File: fBoard, Writer: nB, Seq: 7, Op: "after"}
		if err := w.AppendUpdate(next); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenWALMust(t, dir).Recover(fBoard)
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		if len(again) != len(log)+1 || again[len(log)].Op != "after" {
			t.Fatalf("second recovery returned %d updates after %d plus one append", len(again), len(log))
		}
	})
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	w.SetGroupCommit(8)
	u := wire.Update{File: fBoard, Writer: nA, At: sec(1), Meta: 1.5, Op: "write", Data: make([]byte, 64)}
	for i := 0; i < 16; i++ { // grow the commit-group buffer once
		w.AppendUpdate(u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Seq = i
		if err := w.AppendUpdate(u); err != nil {
			b.Fatal(err)
		}
	}
}

// openDurable is a node's boot sequence for its store: open the journal,
// replay it into a fresh store, journal everything from then on.
func openDurable(t *testing.T, dir string) (*Store, *WAL) {
	t.Helper()
	w := OpenWALMust(t, dir)
	st := New(nA)
	if err := w.Replay(st); err != nil {
		t.Fatal(err)
	}
	return st, w
}

// OpenWALMust opens a WAL or fails the test.
// TestSyncLeavesAppendsFree: a sweep fsyncing a file does not hold up
// appends to it. With a slow disk and a SyncAll in flight past its flush,
// an AppendUpdate to the same file returns before the sync does.
func TestSyncLeavesAppendsFree(t *testing.T) {
	w := OpenWALMust(t, t.TempDir())
	defer w.Close()
	w.SetGroupCommit(64)
	u := wire.Update{File: fBoard, Writer: nA, Seq: 1, Op: "w"}
	if err := w.AppendUpdate(u); err != nil {
		t.Fatal(err)
	}
	w.InjectSyncDelay(200 * time.Millisecond)
	var order, syncedAt, appendedAt atomic.Int32
	synced := make(chan error, 1)
	go func() {
		err := w.SyncAll()
		syncedAt.Store(order.Add(1))
		synced <- err
	}()
	// The buffered record reaches the file only by the sweep's flush, so
	// once it is there the sweep is in its (slow) fsync.
	for {
		if fi, err := os.Stat(w.path(fBoard)); err == nil && fi.Size() > int64(len(walMagic)) {
			break
		}
		runtime.Gosched()
	}
	appended := make(chan error, 1)
	go func() {
		u.Seq = 2
		err := w.AppendUpdate(u)
		appendedAt.Store(order.Add(1))
		appended <- err
	}()
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	if appendedAt.Load() > syncedAt.Load() {
		t.Fatal("the append waited for the fsync of its file")
	}
}

func OpenWALMust(t testing.TB, dir string) *WAL {
	t.Helper()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, w := openDurable(t, dir)
	rep := st.Open(fBoard)
	u1 := rep.WriteLocal(sec(1), "w", []byte("x"), 1)
	rep.WriteLocal(sec(2), "w", []byte("y"), 2)
	remote := wire.Update{File: fBoard, Writer: nB, Seq: 1, At: sec(3), Op: "w"}
	if !rep.Apply(remote) {
		t.Fatal("remote update not applied")
	}
	// Duplicate apply is not re-journaled.
	if rep.Apply(remote) {
		t.Fatal("duplicate applied")
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Restart: state fully recovered.
	st2, w2 := openDurable(t, dir)
	defer w2.Close()
	rep = st2.Open(fBoard)
	if rep.Len() != 3 {
		t.Fatalf("recovered %d updates", rep.Len())
	}
	if rep.Vector().Count(nA) != 2 || rep.Vector().Count(nB) != 1 {
		t.Fatalf("recovered vector %v", rep.Vector())
	}
	// The write cursor continues without seq collisions.
	u4 := rep.WriteLocal(sec(4), "w", nil, 3)
	if u4.Seq != 3 {
		t.Fatalf("post-recovery seq = %d, want 3", u4.Seq)
	}
	if u4.Key() == u1.Key() {
		t.Fatal("seq collision after recovery")
	}
	// Replayed updates were not journaled a second time.
	w2.Close()
	if log, err := OpenWALMust(t, dir).Recover(fBoard); err != nil || len(log) != 4 {
		t.Fatalf("journal holds %d updates (err %v), want 4", len(log), err)
	}
}

func TestReplayGappedArrivalDurability(t *testing.T) {
	// A gapped arrival is buffered, not applied — it must not reach the
	// journal until the gap closes, and then in applied (seq) order, so
	// recovery replay matches the applied log exactly.
	dir := t.TempDir()
	st, w := openDurable(t, dir)
	rep := st.Open(fBoard)
	u1 := wire.Update{File: fBoard, Writer: nB, Seq: 1, At: sec(1), Op: "w"}
	u2 := wire.Update{File: fBoard, Writer: nB, Seq: 2, At: sec(2), Op: "w"}
	u3 := wire.Update{File: fBoard, Writer: nB, Seq: 3, At: sec(3), Op: "w"}
	for _, u := range []wire.Update{u3, u2} { // gapped: buffered only
		if !rep.Apply(u) {
			t.Fatalf("apply %d refused", u.Seq)
		}
	}
	w.SyncAll()
	if log, err := OpenWALMust(t, dir).Recover(fBoard); err != nil || len(log) != 0 {
		t.Fatalf("buffered updates reached the journal: %v, %v", log, err)
	}
	if !rep.Apply(u1) {
		t.Fatal("apply 1 refused")
	}
	w.Close()
	log, err := OpenWALMust(t, dir).Recover(fBoard)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[0].Seq != 1 || log[1].Seq != 2 || log[2].Seq != 3 {
		t.Fatalf("journal not in applied order: %v", log)
	}
}

func TestReplayRollbackMarkerAfterReorder(t *testing.T) {
	// Regression: with arrival-order journaling, a rollback marker's
	// "keep" length cut the journal at the wrong entries when frames had
	// arrived out of order. Applied-order journaling makes the marker
	// exact.
	dir := t.TempDir()
	st, w := openDurable(t, dir)
	rep := st.Open(fBoard)
	u1 := wire.Update{File: fBoard, Writer: nB, Seq: 1, At: sec(1), Op: "w"}
	u2 := wire.Update{File: fBoard, Writer: nB, Seq: 2, At: sec(2), Op: "w"}
	rep.Apply(u2)     // buffered
	rep.Apply(u1)     // drains: applied order 1,2
	rep.Checkpoint(7) // applied length 2
	rep.WriteLocal(sec(3), "w", nil, 0)
	if _, err := rep.Rollback(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	st2, w2 := openDurable(t, dir)
	defer w2.Close()
	rec := st2.Open(fBoard)
	if rec.Len() != 2 || rec.Pending() != 0 {
		t.Fatalf("recovered len=%d pending=%d, want 2/0", rec.Len(), rec.Pending())
	}
	if rec.Vector().Count(nB) != 2 {
		t.Fatalf("recovered count = %d, want 2", rec.Vector().Count(nB))
	}
}

func TestReplayMultipleFiles(t *testing.T) {
	dir := t.TempDir()
	st, w := openDurable(t, dir)
	st.Open("alpha").WriteLocal(sec(1), "w", nil, 0)
	st.Open("beta").WriteLocal(sec(1), "w", nil, 0)
	st.Open("beta").WriteLocal(sec(2), "w", nil, 0)
	w.Close()

	st2, w2 := openDurable(t, dir)
	defer w2.Close()
	if got := st2.Open("alpha").Len(); got != 1 {
		t.Fatalf("alpha = %d", got)
	}
	if got := st2.Open("beta").Len(); got != 2 {
		t.Fatalf("beta = %d", got)
	}
}

func TestReplayRollbackJournal(t *testing.T) {
	dir := t.TempDir()
	st, w := openDurable(t, dir)
	rep := st.Open(fBoard)
	rep.WriteLocal(sec(1), "w", nil, 0)
	rep.WriteLocal(sec(2), "w", nil, 0)
	rep.Checkpoint(1)
	rep.WriteLocal(sec(3), "w", nil, 0)
	if _, err := rep.Rollback(1); err != nil {
		t.Fatal(err)
	}
	w.Close()

	st2, w2 := openDurable(t, dir)
	defer w2.Close()
	if got := st2.Open(fBoard).Len(); got != 2 {
		t.Fatalf("recovered %d updates after journaled rollback, want 2", got)
	}
}

func TestReplaySkipsACorruptLogAndReportsIt(t *testing.T) {
	dir := t.TempDir()
	st, w := openDurable(t, dir)
	for i := 0; i < 3; i++ {
		st.Open("good").WriteLocal(sec(float64(i)), "w", nil, 0)
		st.Open("bad").WriteLocal(sec(float64(i)), "w", nil, 0)
	}
	w.Close()
	path := w.path("bad")
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	image[len(walMagic)+recHeader+2] ^= 0xff // inside the first of three records
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := OpenWALMust(t, dir)
	defer w2.Close()
	st2 := New(nA)
	err = w2.Replay(st2)
	if err == nil || !strings.Contains(err.Error(), filepath.Base(path)) {
		t.Fatalf("Replay error %v does not name the corrupt log", err)
	}
	if got := st2.Open("good").Len(); got != 3 {
		t.Fatalf("good file recovered %d updates beside a corrupt one, want 3", got)
	}
	if got := st2.Open("bad").Len(); got != 0 {
		t.Fatalf("corrupt log replayed %d updates", got)
	}
}

func TestStoreJournalHooksCaptureAllPaths(t *testing.T) {
	// A journal attached via Store.SetJournal must see every applied
	// update — local writes, remote applies, gap-closing drains — and a
	// truncation marker for rollbacks, with no per-path plumbing.
	dir := t.TempDir()
	w := OpenWALMust(t, dir)
	st := New(nA)
	st.SetJournal(w)
	rep := st.Open(fBoard)
	rep.WriteLocal(sec(1), "w", []byte("a"), 0)
	rep.Apply(wire.Update{File: fBoard, Writer: nB, Seq: 2, At: sec(2), Op: "w"}) // gapped: buffered
	rep.Apply(wire.Update{File: fBoard, Writer: nB, Seq: 1, At: sec(3), Op: "w"}) // drains 1,2
	rep.Checkpoint(5)
	rep.WriteLocal(sec(4), "w", []byte("b"), 0)
	if _, err := rep.Rollback(5); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("journal latched error: %v", err)
	}
	w.Close()

	log, err := OpenWALMust(t, dir).Recover(fBoard)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 {
		t.Fatalf("recovered %d updates, want 3 (rollback marker cut the 4th)", len(log))
	}
	if log[1].Writer != nB || log[1].Seq != 1 || log[2].Seq != 2 {
		t.Fatalf("journal not in applied order: %v", log)
	}
}

func TestStoreJournalHookOnInvalidatingAdoption(t *testing.T) {
	// An invalidate-both resolution cuts local extras; the journal must
	// record the truncation so recovery does not resurrect them.
	dir := t.TempDir()
	w := OpenWALMust(t, dir)
	st := New(nA)
	st.SetJournal(w)
	rep := st.Open(fBoard)
	rep.WriteLocal(sec(1), "w", nil, 0)
	rep.WriteLocal(sec(2), "w", nil, 0) // will be invalidated
	adopt := vv.New()
	adopt.Tick(nA, sec(1), 0)
	applied, invalidated := rep.AdoptImage(adopt, nil, true)
	if applied != 0 || invalidated != 1 {
		t.Fatalf("adopt = %d applied, %d invalidated; want 0/1", applied, invalidated)
	}
	w.Close()
	log, err := OpenWALMust(t, dir).Recover(fBoard)
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0].Seq != 1 {
		t.Fatalf("recovered %v, want only the surviving update", log)
	}
}

func TestWALConcurrentAppendsAndSync(t *testing.T) {
	// Shard executors journal different files while the periodic sweep
	// fsyncs everything: must be race-free (run under -race).
	w := OpenWALMust(t, t.TempDir())
	w.SetGroupCommit(4)
	files := []id.FileID{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for i, f := range files {
		wg.Add(1)
		go func(f id.FileID, writer id.NodeID) {
			defer wg.Done()
			for s := 1; s <= 200; s++ {
				if err := w.AppendUpdate(wire.Update{File: f, Writer: writer, Seq: s, Op: "w"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(f, id.NodeID(i+1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := w.SyncAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	w.Close()
	for _, f := range files {
		log, err := OpenWALMust(t, w.dir).Recover(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(log) != 200 {
			t.Fatalf("file %s recovered %d updates, want 200", f, len(log))
		}
	}
}

func TestWALFsyncHistogram(t *testing.T) {
	w := OpenWALMust(t, t.TempDir())
	reg := telemetry.NewRegistry()
	w.AttachMetrics(reg)
	w.AppendUpdate(wire.Update{File: fBoard, Writer: nA, Seq: 1, Op: "w"})
	if err := w.Sync(fBoard); err != nil {
		t.Fatal(err)
	}
	if err := w.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("store.wal_fsync_ms").Count(); got != 2 {
		t.Fatalf("store.wal_fsync_ms count = %d, want 2", got)
	}
}

func TestWALInjectError(t *testing.T) {
	w := OpenWALMust(t, t.TempDir())
	reg := telemetry.NewRegistry()
	w.AttachMetrics(reg)
	if w.Err() != nil {
		t.Fatalf("fresh WAL reports error: %v", w.Err())
	}
	w.InjectError("torn-log drill")
	err := w.Err()
	if err == nil {
		t.Fatal("InjectError did not latch a sticky error")
	}
	if want := "injected: torn-log drill"; err.Error() != want {
		t.Fatalf("Err() = %q, want %q", err, want)
	}
	if got := reg.Counter("store.wal_errors_total").Value(); got != 1 {
		t.Fatalf("store.wal_errors_total = %d, want 1", got)
	}
	// Sticky: a later injection does not replace the first error.
	w.InjectError("second fault")
	if w.Err().Error() != "injected: torn-log drill" {
		t.Fatalf("first error was not sticky: %v", w.Err())
	}
	// The journal keeps appending — durability is suspect, not the
	// in-memory path (the real torn-log contract).
	if err := w.AppendUpdate(wire.Update{File: fBoard, Writer: nA, Seq: 1, Op: "w"}); err != nil {
		t.Fatalf("append after injected error: %v", err)
	}
}

func TestWALInjectSyncDelay(t *testing.T) {
	w := OpenWALMust(t, t.TempDir())
	reg := telemetry.NewRegistry()
	w.AttachMetrics(reg)
	w.AppendUpdate(wire.Update{File: fBoard, Writer: nA, Seq: 1, Op: "w"})
	w.InjectSyncDelay(30 * time.Millisecond)
	if err := w.Sync(fBoard); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("store.wal_fsync_ms")
	if got := h.CountAbove(20); got != 1 {
		t.Fatalf("braked fsync not visible in histogram: CountAbove(20ms) = %d, want 1", got)
	}
	// Clearing the brake restores the real disk's pace.
	w.InjectSyncDelay(0)
	if err := w.Sync(fBoard); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != 2 {
		t.Fatalf("fsync count = %d, want 2", got)
	}
}
