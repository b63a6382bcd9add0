package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	if err := w.SyncAll(); err != nil {
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
	// File IDs never shape a path: whatever bytes they hold, the journal
	// directory holds one journal and nothing else, inside it or beside it.
	root := t.TempDir()
	dir := filepath.Join(root, "wal")
	w := OpenWALMust(t, dir)
	for s, f := range []id.FileID{"a/b:c board%", "../up", "/abs", "..", ""} {
		if err := w.AppendUpdate(wire.Update{File: f, Writer: nA, Seq: s + 1, Op: "w"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for d, want := range map[string]string{root: "wal", dir: journalName} {
		if names := dirNames(t, d); len(names) != 1 || names[0] != want {
			t.Fatalf("%s holds %q, want only %q", d, names, want)
		}
	}
}

// dirNames lists the names in dir.
func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWALDistinctFilesNeverShareALog(t *testing.T) {
	// Regression (per-file logs): "a/b" and "a_b" both mapped to a_b.wal,
	// where two record streams interleaved and recovery dropped one of
	// them. In the journal every file's records interleave by design, and
	// each file recovers exactly its own.
	dir := t.TempDir()
	w := OpenWALMust(t, dir)
	w.SetGroupCommit(3)
	ids := []id.FileID{"a/b", "a_b", "a%2Fb", "../up", "plain"}
	for s := 1; s <= len(ids); s++ {
		for i, f := range ids[s-1:] {
			if err := w.AppendUpdate(wire.Update{File: f, Writer: nA, Seq: s, Op: "w"}); err != nil {
				t.Fatal(err)
			}
			if i == 0 { // a marker that keeps all, between the files' records
				if err := w.AppendRollback(f, s); err != nil {
					t.Fatal(err)
				}
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
		for s, u := range log {
			if u.File != f || u.Seq != s+1 {
				t.Fatalf("file %q recovered %v", f, log)
			}
		}
	}
}

// journalPath is the journal of the WAL directory dir.
func journalPath(dir string) string { return filepath.Join(dir, journalName) }

// writeLog journals n updates of writer nA to fBoard in dir and returns
// the journal's bytes and the byte offset at which each record starts
// (plus the end offset as the last element).
func writeLog(t testing.TB, dir string, n int) (image []byte, bounds []int) {
	t.Helper()
	w := OpenWALMust(t, dir)
	for i := 1; i <= n; i++ {
		st, err := os.Stat(journalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, int(st.Size()))
		u := wire.Update{File: fBoard, Writer: nA, Seq: i, At: sec(float64(i)), Op: "w", Data: []byte{byte(i)}}
		if err := w.AppendUpdate(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return image, append(bounds, len(image))
}

// openImage writes image as the journal of a new directory and opens it.
func openImage(t testing.TB, image []byte) (*WAL, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), image, 0o644); err != nil {
		t.Fatal(err)
	}
	return OpenWALMust(t, dir), dir
}

func TestWALAppendAfterTornTail(t *testing.T) {
	// Regression: after a torn tail and a restart, new records were
	// appended behind the torn bytes; the next recovery stopped at the
	// tear and returned 2 of 6 updates with a nil error.
	image, _ := writeLog(t, t.TempDir(), 3)
	w, dir := openImage(t, image[:len(image)-3])
	log, err := w.Recover(fBoard)
	if err != nil || len(log) != 2 {
		t.Fatalf("recovered %d updates from the torn journal (err %v), want 2", len(log), err)
	}
	for i := 3; i <= 6; i++ {
		if err := w.AppendUpdate(wire.Update{File: fBoard, Writer: nA, Seq: i, Op: "w"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SyncAll(); err != nil {
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
	// A node that appends to an existing journal without replaying it
	// first must still not write behind a tear.
	image, _ := writeLog(t, t.TempDir(), 3)
	w, dir := openImage(t, image[:len(image)-3])
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
	// reports no error, and the journal is left ending at a record
	// boundary.
	image, bounds := writeLog(t, t.TempDir(), 5)
	for cut := bounds[3]; cut <= len(image); cut++ {
		want := 3
		for i := 4; i < len(bounds) && bounds[i] <= cut; i++ {
			want = i
		}
		w, dir := openImage(t, image[:cut])
		log, err := w.Recover(fBoard)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(log) != want || (want > 0 && log[want-1].Seq != want) {
			t.Fatalf("cut at %d: recovered %d updates, want %d", cut, len(log), want)
		}
		if st, _ := os.Stat(journalPath(dir)); int(st.Size()) != bounds[want] {
			t.Fatalf("cut at %d: journal left %d bytes long, want the record boundary %d", cut, st.Size(), bounds[want])
		}
		w.Close()
	}
}

func TestWALMidLogCorruptionIsAnError(t *testing.T) {
	// The corruption half: damage to a record that intact records follow
	// is reported with its byte offset, never as a shorter log, and the
	// journal is set aside whole. Every byte of the record is tried, its
	// length and checksum included.
	image, bounds := writeLog(t, t.TempDir(), 5)
	for at := bounds[2]; at < bounds[3]; at++ {
		bad := bytes.Clone(image)
		bad[at] ^= 0x41
		w, dir := openImage(t, bad)
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
		w.Close()
		if kept, err := os.ReadFile(journalPath(dir) + ".corrupt"); err != nil || !bytes.Equal(kept, bad) {
			t.Fatalf("byte %d flipped: journal not set aside whole: %v", at, err)
		}
	}
}

func TestWALRejectsUndecodableRecord(t *testing.T) {
	// A record whose checksum matches but whose body does not decode is
	// corruption too: the journal is set aside at open, the error names
	// the record's byte offset, and appends after it land in a new
	// journal that the next restart recovers.
	dir := t.TempDir()
	image, _ := writeLog(t, dir, 2)
	body := []byte{'u', 0x7f} // a file ID length far past the record
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(body, castagnoli))
	bad := append(append(bytes.Clone(image), rec...), body...)
	if err := os.WriteFile(journalPath(dir), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	w := OpenWALMust(t, dir)
	log, err := w.Recover(fBoard)
	if want := fmt.Sprintf("byte offset %d", len(image)); err == nil || !strings.Contains(err.Error(), want) || log != nil {
		t.Fatalf("recovered %d updates, error %v; want none and an error naming %q", len(log), err, want)
	}
	if kept, err := os.ReadFile(journalPath(dir) + ".corrupt"); err != nil || !bytes.Equal(kept, bad) {
		t.Fatalf("journal not set aside whole: %v", err)
	}
	next := wire.Update{File: fBoard, Writer: nB, Seq: 1, Op: "after"}
	if err := w.AppendUpdate(next); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenWALMust(t, dir).Recover(fBoard)
	if err != nil || len(again) != 1 || again[0].Op != "after" {
		t.Fatalf("second recovery = %v, %v; want the one update appended after the rejection", again, err)
	}
}

func TestWALRecoverBoundsItsSearch(t *testing.T) {
	// Telling a torn tail from corruption means looking for an intact
	// record behind the damage. Payload bytes can be crafted so that every
	// ninth offset looks like the header of an 8 KiB record; recovery must
	// stop checksumming them after a few times the journal's size and
	// report corruption, not spend minutes per megabyte.
	image, _ := writeLog(t, t.TempDir(), 2)
	unit := []byte{0x00, 0x20, 0, 0, 1, 2, 3, 4, 'u'}
	image = append(image, bytes.Repeat(unit, 1<<15)...)
	w, _ := openImage(t, image)
	defer w.Close()
	if log, err := w.Recover(fBoard); err == nil {
		t.Fatalf("recovered %d updates and no error from a journal with a crafted tail", len(log))
	}
}

func TestWALRejectsLogWithoutHeader(t *testing.T) {
	// A journal of an earlier format (or any foreign file) is rejected and
	// set aside, and a new one started, so the journal restarts in step
	// with the replicas, which restart empty.
	old := []byte("\x2c\xff\x81\x03\x01\x01\x09walRecord\x01\xff\x82\x00\x01\x03")
	w, dir := openImage(t, old)
	if log, err := w.Recover(fBoard); err == nil || log != nil {
		t.Fatalf("headerless journal recovered as %v, %v", log, err)
	}
	st := New(nA)
	if err := w.Replay(st); err == nil {
		t.Fatal("Replay did not report the rejected journal")
	}
	st.Open(fBoard).WriteLocal(sec(1), "w", nil, 0)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if kept, err := os.ReadFile(journalPath(dir) + ".corrupt"); err != nil || !bytes.Equal(kept, old) {
		t.Fatalf("rejected journal not set aside intact: %v", err)
	}
	log, err := OpenWALMust(t, dir).Recover(fBoard)
	if err != nil || len(log) != 1 {
		t.Fatalf("restarted journal recovered %v, %v; want the one new write", log, err)
	}
}

// journalScript journals the operations script encodes, round-robin over
// four files, and returns the WAL directory and each operation's effect
// on a per-file model: after[i] is every file's log once the first i+1
// records are applied. Each byte is an update, or (two bits set) a
// rollback marker keeping one more than, as many as, or one fewer than
// the file's current length.
func journalScript(t *testing.T, script []byte) (dir string, after []map[id.FileID][]wire.Update) {
	files := []id.FileID{"a", "b/c", "d", ""}
	dir = t.TempDir()
	w := OpenWALMust(t, dir)
	if len(script) > 0 {
		w.SetGroupCommit(int(script[0] % 10))
	}
	model := map[id.FileID][]wire.Update{}
	for i, b := range script {
		f := files[int(b)%len(files)]
		if log := model[f]; b&0x30 == 0x30 {
			keep := max(0, len(log)+1-int(b>>6)%3)
			if err := w.AppendRollback(f, keep); err != nil {
				t.Fatal(err)
			}
			if keep <= len(log) {
				model[f] = log[:keep:keep]
			}
		} else {
			u := wire.Update{File: f, Writer: id.NodeID(b%3 + 1), Seq: i + 1, At: vv.Stamp(i), Op: "w", Data: bytes.Repeat([]byte{b}, int(b>>4))}
			if err := w.AppendUpdate(u); err != nil {
				t.Fatal(err)
			}
			model[f] = append(log[:len(log):len(log)], u)
		}
		after = append(after, maps.Clone(model))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, after
}

// recoverAll recovers the model's four files from the journal in dir.
func recoverAll(t *testing.T, dir string) map[id.FileID][]wire.Update {
	w := OpenWALMust(t, dir)
	defer w.Close()
	got := map[id.FileID][]wire.Update{}
	for _, f := range []id.FileID{"a", "b/c", "d", ""} {
		log, err := w.Recover(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(log) > 0 {
			got[f] = log
		}
	}
	return got
}

// sameLogs reports whether two sets of per-file logs are equal, treating
// an empty log as absent.
func sameLogs(a, b map[id.FileID][]wire.Update) bool {
	nonEmpty := func(m map[id.FileID][]wire.Update) int {
		n := 0
		for _, log := range m {
			n += min(len(log), 1)
		}
		return n
	}
	if nonEmpty(a) != nonEmpty(b) {
		return false
	}
	for f, log := range a {
		if len(log) > 0 && !slices.EqualFunc(log, b[f], func(x, y wire.Update) bool {
			return x.File == y.File && x.Writer == y.Writer && x.Seq == y.Seq && x.At == y.At && x.Op == y.Op && bytes.Equal(x.Data, y.Data)
		}) {
			return false
		}
	}
	return true
}

func FuzzWALRecover(f *testing.F) {
	image, bounds := writeLog(f, f.TempDir(), 3)
	f.Add(image)
	f.Add(image[:len(image)-3])
	f.Add(image[:bounds[1]+2])
	flipped := bytes.Clone(image)
	flipped[bounds[1]+9] ^= 1
	f.Add(flipped)
	f.Add(appendRecord(bytes.Clone(image), 'r', fBoard, wire.Update{}, 1))
	f.Add([]byte(walMagic))
	f.Add([]byte("IDEA"))
	f.Add([]byte{})
	f.Add([]byte{3, 0x11, 0x22, 0x33, 0x44, 0xf1, 0x05, 0x72, 0xb3, 0x10, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a journal image. No record reaches the decoder unless the
		// checksum in front of it matches; visit sees each intact record's
		// body in order, so the offsets it implies are the records' own.
		off := int64(len(walMagic))
		end, err := scanLog(bytes.NewReader(data), int64(len(data)), func(body []byte) error {
			at := off + recHeader
			if at+int64(len(body)) > int64(len(data)) || !bytes.Equal(data[at:at+int64(len(body))], body) ||
				crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
				t.Fatalf("record at %d visited with a failed checksum", off)
			}
			off += recHeader + int64(len(body))
			return nil
		})
		if end < 0 || end > int64(len(data)) || (err == nil && end != off && end != 0) {
			t.Fatalf("scan ended at %d of %d after records to %d (err %v)", end, len(data), off, err)
		}

		// Whatever the bytes, recovery either rejects the journal or
		// returns a prefix that survives an append and a second restart.
		w, dir := openImage(t, data)
		log, err := w.Recover(fBoard)
		if err != nil {
			if log != nil {
				t.Fatalf("error %v came with %d updates", err, len(log))
			}
			w.Close()
		} else {
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
		}

		// As a script: appends and rollback markers of four files,
		// interleaved in one journal. Each file recovers exactly its
		// model's log; a journal cut at any byte recovers every file as it
		// stood after the last whole record before the cut.
		dir, after := journalScript(t, data)
		if len(after) == 0 {
			return
		}
		if got := recoverAll(t, dir); !sameLogs(got, after[len(after)-1]) {
			t.Fatalf("recovered %v, model %v", got, after[len(after)-1])
		}
		full, err := os.ReadFile(journalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		var ends []int
		pos := len(walMagic)
		scanLog(bytes.NewReader(full), int64(len(full)), func(body []byte) error {
			pos += recHeader + len(body)
			ends = append(ends, pos)
			return nil
		})
		cut := len(full)
		if len(data) > 1 {
			cut = int(binary.LittleEndian.Uint16(data[len(data)-2:])) % (len(full) + 1)
		}
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		if err := os.WriteFile(journalPath(dir), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[id.FileID][]wire.Update{}
		if whole > 0 {
			want = after[whole-1]
		}
		if got := recoverAll(t, dir); !sameLogs(got, want) {
			t.Fatalf("cut at %d of %d (%d whole records): recovered %v, want %v", cut, len(full), whole, got, want)
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

func BenchmarkWALAppendParallel(b *testing.B) {
	// Appends from every goroutine at once, alternating between two files,
	// each goroutine its own writer: the two shards of a node journaling
	// their applies into the one WAL they share.
	w, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	w.SetGroupCommit(8)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := next.Add(1)
		u := wire.Update{File: id.FileID(fmt.Sprintf("file-%d", g%2)), Writer: id.NodeID(g), At: sec(1), Meta: 1.5, Op: "write", Data: make([]byte, 64)}
		for pb.Next() {
			u.Seq++
			if err := w.AppendUpdate(u); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkWALAppendManyFiles(b *testing.B) {
	// A load spread over 64 files, round-robin: the shared commit group
	// fills by size long before any one file holds 8 records.
	w, err := OpenWAL(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	w.SetGroupCommit(8)
	var us [64]wire.Update
	for i := range us {
		us[i] = wire.Update{File: id.FileID(fmt.Sprintf("file-%02d", i)), Writer: nA, At: sec(1), Meta: 1.5, Op: "write", Data: make([]byte, 64)}
		w.AppendUpdate(us[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := &us[i%len(us)]
		u.Seq = i
		if err := w.AppendUpdate(*u); err != nil {
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
		if fi, err := os.Stat(journalPath(w.dir)); err == nil && fi.Size() > int64(len(walMagic)) {
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
	// One journal holds every file, so corruption anywhere in it costs
	// every file its log: Replay reports it naming the journal, replays
	// nothing, and the node's later writes start a new journal.
	dir := t.TempDir()
	st, w := openDurable(t, dir)
	for i := 0; i < 3; i++ {
		st.Open("good").WriteLocal(sec(float64(i)), "w", nil, 0)
		st.Open("bad").WriteLocal(sec(float64(i)), "w", nil, 0)
	}
	w.Close()
	image, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	image[len(walMagic)+recHeader+2] ^= 0xff // inside the first of six records
	if err := os.WriteFile(journalPath(dir), image, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := OpenWALMust(t, dir)
	st2 := New(nA)
	err = w2.Replay(st2)
	if err == nil || !strings.Contains(err.Error(), journalName) {
		t.Fatalf("Replay error %v does not name the corrupt journal", err)
	}
	if n := len(st2.Files()); n != 0 {
		t.Fatalf("a corrupt journal replayed %d files", n)
	}
	st2.Open("good").WriteLocal(sec(9), "w", nil, 0)
	w2.Close()
	if got := dirNames(t, dir); len(got) != 2 || got[0] != journalName || got[1] != journalName+".corrupt" {
		t.Fatalf("journal directory holds %q, want the new journal and the one set aside", got)
	}
	if log, err := OpenWALMust(t, dir).Recover("good"); err != nil || len(log) != 1 {
		t.Fatalf("new journal recovered %v, %v; want the one write after the restart", log, err)
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

func TestWALOneJournal(t *testing.T) {
	// A node's files share one journal: appends to 64 files create one
	// file, and a sweep is one flush and one fsync whatever the count.
	dir := t.TempDir()
	w := OpenWALMust(t, dir)
	defer w.Close()
	reg := telemetry.NewRegistry()
	w.AttachMetrics(reg)
	w.SetGroupCommit(8)
	for i := 0; i < 64; i++ {
		if err := w.AppendUpdate(wire.Update{File: id.FileID(fmt.Sprintf("f%02d", i)), Writer: nA, Seq: 1, Op: "w"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dirNames(t, dir); len(got) != 1 || got[0] != journalName {
		t.Fatalf("64 files journaled into %q, want only %s", got, journalName)
	}
	if err := w.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram("store.wal_fsync_ms").Count(); got != 1 {
		t.Fatalf("one sweep over 64 files made %d fsync observations, want 1", got)
	}
}

func TestWALCommitGroupSpansFiles(t *testing.T) {
	// The open commit group is shared: it reaches the OS when any one
	// file holds N records of it (so at most N-1 records of each file are
	// ever held back), or when it reaches groupBytes.
	dir := t.TempDir()
	w := OpenWALMust(t, dir)
	defer w.Close()
	w.SetGroupCommit(8)
	size := func() int64 {
		fi, err := os.Stat(journalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	files := []id.FileID{"a", "b", "c"}
	for s := 1; s <= 7; s++ {
		for _, f := range files {
			w.AppendUpdate(wire.Update{File: f, Writer: nA, Seq: s, Op: "w"})
		}
	}
	if got := size(); got != int64(len(walMagic)) {
		t.Fatalf("7 records of each of 3 files reached the journal early: %d bytes", got)
	}
	w.AppendUpdate(wire.Update{File: "b", Writer: nA, Seq: 8, Op: "w"})
	written := size()
	if written == int64(len(walMagic)) {
		t.Fatal("a file's 8th record did not write the group")
	}
	w.AppendUpdate(wire.Update{File: "a", Writer: nA, Seq: 8, Op: "w"})
	if size() != written {
		t.Fatal("a group of one record was written after the counts were reset")
	}
	w.AppendUpdate(wire.Update{File: "d", Writer: nA, Seq: 1, Op: "w", Data: make([]byte, groupBytes)})
	if size() <= written+groupBytes {
		t.Fatal("a group past groupBytes stayed in memory")
	}
}

func TestWALFsyncHistogram(t *testing.T) {
	w := OpenWALMust(t, t.TempDir())
	reg := telemetry.NewRegistry()
	w.AttachMetrics(reg)
	w.AppendUpdate(wire.Update{File: fBoard, Writer: nA, Seq: 1, Op: "w"})
	for range 2 {
		if err := w.SyncAll(); err != nil {
			t.Fatal(err)
		}
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
	if err := w.SyncAll(); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("store.wal_fsync_ms")
	if got := h.CountAbove(20); got != 1 {
		t.Fatalf("braked fsync not visible in histogram: CountAbove(20ms) = %d, want 1", got)
	}
	// Clearing the brake restores the real disk's pace.
	w.InjectSyncDelay(0)
	if err := w.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if got := h.Count(); got != 2 {
		t.Fatalf("fsync count = %d, want 2", got)
	}
}
