package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/wire"
)

// WAL persists a replica's update log as one append-only file per file
// ID, giving the "general distributed file system" substrate crash
// durability: on restart a node replays its logs and rejoins with the
// state it had, letting IDEA's detection/resolution reconcile whatever it
// missed while down.
//
// On-disk format: an 8-byte header (walMagic: "IDEAWAL" and a version
// byte) followed by self-delimiting records,
//
//	[u32 len][u32 crc32c][kind][payload]
//
// little-endian, where len counts kind+payload and the CRC (Castagnoli)
// covers the same bytes. Kind 'u' carries one update in the wire codec's
// own encoding (wire.AppendUpdate: the journal has no field list of its
// own); kind 'r' carries the uvarint log length that survived a rollback.
//
// Recovery contract: a record that is short or fails its CRC and has no
// intact record after it is a torn tail (the crash interrupted its
// write) and is discarded, and the file is cut back to the last intact
// record boundary so later appends follow intact data. The same damage
// with an intact record after it is corruption: recovery returns an
// error naming the byte offset, never a silently shorter log. A file
// that does not start with the header (such as a log written by the
// earlier gob format) is rejected the same way.
//
// Appends are group-committed: records are encoded into a per-file
// buffer and reach the OS in one write per commit group instead of one
// syscall per update. The default group size of 1 writes every append
// through; a hot node raises it with SetGroupCommit and pays one write
// per N updates, trading a bounded tail-loss window (which anti-entropy
// re-ships) for an order of magnitude fewer journal syscalls. Sync and
// Close always flush first.
//
// The WAL is safe for concurrent use: the file table is guarded by a
// read-write mutex (lookups on the append hot path take only the read
// side) and each open log serializes its own encode and flush under a
// per-file mutex, so shard executors journaling different files never
// contend, and a periodic SyncAll sweep never races an append — nor
// holds one up while the disk syncs.
type WAL struct {
	dir string
	// mu guards the file table and fsyncMS. Appends take only the read
	// side; opening a new log takes the write side.
	mu    sync.RWMutex
	files map[id.FileID]*walFile
	// groupCommit is how many records may accumulate before the buffer
	// is pushed to the OS; anything below 2 flushes every append.
	groupCommit atomic.Int64
	// fsyncMS observes each Sync's flush+fsync latency in milliseconds;
	// nil (no registry attached) is a no-op.
	fsyncMS *telemetry.Histogram

	// errMu guards firstErr: the first append error seen via the Journal
	// hook interface, surfaced at the next Err/Sync call site (the hooks
	// run inside the store's apply path, which has no error channel).
	// errsC counts every noted error (store.wal_errors_total) — the
	// health engine's evidence when the sticky error trips its critical.
	errMu    sync.Mutex
	firstErr error
	errsC    *telemetry.Counter

	// syncDelayNS is the fault-injection fsync brake (see
	// InjectSyncDelay); zero means the disk runs at its real pace.
	syncDelayNS atomic.Int64
}

const (
	walMagic  = "IDEAWAL\x01"
	recHeader = 8 // u32 len + u32 crc32c
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type walFile struct {
	// mu serializes this log's encode buffer and writes: appends from the
	// file's shard and sync sweeps from the timer shard never interleave
	// mid-record. The fsync itself runs outside it (see syncFile).
	mu sync.Mutex
	f  *os.File
	// buf holds the encoded records of the open commit group (and, for a
	// new log, the header), written to f in one piece by flush.
	buf       []byte
	unflushed int
	// err latches the first failed write: it may have left a partial
	// record on disk, and nothing is written behind one.
	err error
}

// appendRecord appends one framed record to b: kind 'u' carries u, kind
// 'r' (rollback marker) the surviving log length keep.
func appendRecord(b []byte, kind byte, u wire.Update, keep int) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	if kind == 'u' {
		b = wire.AppendUpdate(b, u)
	} else {
		b = binary.AppendUvarint(b, uint64(keep))
	}
	body := b[start+recHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(body, castagnoli))
	return b
}

// frameLen inspects the record frame at the start of b. n is the frame's
// length, or 0 when b cannot start with a frame at all (too short, an
// unknown kind, a length that overruns b); intact reports that its
// checksum matches too.
func frameLen(b []byte) (n int, intact bool) {
	if len(b) <= recHeader || (b[recHeader] != 'u' && b[recHeader] != 'r') {
		return 0, false
	}
	size := binary.LittleEndian.Uint32(b)
	if size == 0 || uint64(size) > uint64(len(b)-recHeader) {
		return 0, false
	}
	n = recHeader + int(size)
	return n, crc32.Checksum(b[recHeader:n], castagnoli) == binary.LittleEndian.Uint32(b[4:])
}

// scanLog walks a log image, handing the body of every intact record to
// visit (which may be nil), and returns the offset just past the last
// intact record. Damage with nothing intact behind it is a torn tail and
// ends the walk without error; damage followed by an intact record is
// corruption.
func scanLog(data []byte, visit func(body []byte) error) (end int, err error) {
	n := min(len(data), len(walMagic))
	if string(data[:n]) != walMagic[:n] {
		return 0, errors.New("not an IDEA journal (no header; logs of the earlier gob format are not read)")
	}
	if n < len(walMagic) {
		return 0, nil // empty, or torn while the header was being written
	}
	off := len(walMagic)
	for off < len(data) {
		n, intact := frameLen(data[off:])
		if !intact {
			// Torn or corrupt? Look for an intact record behind the damage.
			// The search gives up (and says corrupt, the answer that loses
			// nothing silently) once it has checksummed 4x the log, which
			// only payload bytes crafted to look like frames can cost.
			work := 0
			for p := off + 1; p < len(data); p++ {
				m, found := frameLen(data[p:])
				if work += m; found || work > 4*len(data) {
					return off, fmt.Errorf("corrupt record at byte offset %d (more than a torn tail follows it)", off)
				}
			}
			return off, nil
		}
		if visit != nil {
			if err := visit(data[off+recHeader : off+n]); err != nil {
				return off, fmt.Errorf("record at byte offset %d: %w", off, err)
			}
		}
		off += n
	}
	return off, nil
}

// OpenWAL opens (creating if needed) a write-ahead log directory.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	return &WAL{dir: dir, files: make(map[id.FileID]*walFile)}, nil
}

// SetGroupCommit sets how many appended records may sit in the in-memory
// buffer before it is pushed to the OS (minimum 1 = flush per append).
// Records held in the buffer are lost on crash and anti-entropy re-ships
// them, so raising the group size costs at most a re-sync window, never
// correctness.
func (w *WAL) SetGroupCommit(n int) { w.groupCommit.Store(int64(n)) }

// AttachMetrics exports the journal's fsync latency as the
// store.wal_fsync_ms histogram. Call it before the node starts handling
// traffic.
func (w *WAL) AttachMetrics(reg *telemetry.Registry) {
	h := reg.HistogramWith("store.wal_fsync_ms",
		[]float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250})
	c := reg.Counter("store.wal_errors_total")
	w.mu.Lock()
	w.fsyncMS = h
	w.mu.Unlock()
	w.errMu.Lock()
	w.errsC = c
	w.errMu.Unlock()
}

const walExt = ".wal"

// path maps a file ID to its log name. The escape is reversible (Files
// maps names back) and leaves no path separator, so distinct IDs never
// share a log and none leaves the directory.
func (w *WAL) path(file id.FileID) string {
	return filepath.Join(w.dir, url.PathEscape(string(file))+walExt)
}

// appender returns the file's open log, opening it on first append.
func (w *WAL) appender(file id.FileID) (*walFile, error) {
	w.mu.RLock()
	wf := w.files[file]
	w.mu.RUnlock()
	if wf != nil {
		return wf, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if wf = w.files[file]; wf != nil {
		return wf, nil
	}
	wf, err := openLog(w.path(file))
	if err != nil {
		return nil, fmt.Errorf("store: wal open: %w", err)
	}
	w.files[file] = wf
	return wf, nil
}

// openLog opens a log for append at its last intact record boundary: a
// torn tail is cut off first, so nothing is ever appended behind bytes
// recovery stops at. A log recovery rejects (corrupt, or not this format)
// is set aside as <log>.corrupt and a new one started, because its replica
// restarts empty and rollback markers count from the applied log.
func openLog(path string) (*walFile, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	end, err := scanLog(data, nil)
	if err != nil {
		if err := os.Rename(path, path+".corrupt"); err != nil {
			return nil, err
		}
		data, end = nil, 0
	}
	if end < len(data) {
		if err := os.Truncate(path, int64(end)); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	wf := &walFile{f: f}
	if end == 0 {
		wf.buf = append(wf.buf, walMagic...)
	}
	return wf, nil
}

// append encodes one record into the file's commit group and writes the
// group out once it is full.
func (w *WAL) append(file id.FileID, kind byte, u wire.Update, keep int) error {
	wf, err := w.appender(file)
	if err != nil {
		return err
	}
	wf.mu.Lock()
	defer wf.mu.Unlock()
	wf.buf = appendRecord(wf.buf, kind, u, keep)
	if wf.unflushed++; wf.unflushed >= int(w.groupCommit.Load()) {
		return wf.flush()
	}
	return nil
}

// flush writes the open commit group to the OS. Callers hold wf.mu.
func (wf *walFile) flush() error {
	if wf.err == nil && len(wf.buf) > 0 {
		if _, err := wf.f.Write(wf.buf); err != nil {
			wf.err = fmt.Errorf("store: wal write: %w", err)
		}
	}
	wf.buf, wf.unflushed = wf.buf[:0], 0
	return wf.err
}

// AppendUpdate records one applied update (reaching the OS by the next
// group-commit flush).
func (w *WAL) AppendUpdate(u wire.Update) error { return w.append(u.File, 'u', u, 0) }

// AppendRollback records that the replica rolled back to keep updates.
func (w *WAL) AppendRollback(file id.FileID, keep int) error {
	return w.append(file, 'r', wire.Update{}, keep)
}

// ---- store.Journal hooks ----
//
// Appended and Truncated let a WAL plug directly into Store.SetJournal:
// every update the store applies and every rollback/invalidation
// truncation is journaled automatically. The hooks run inside the
// store's apply path, which has no error channel, so failures latch into
// the WAL's sticky error and surface at the next Err, Sync, or SyncAll.

// Appended journals one applied update (store.Journal).
func (w *WAL) Appended(u wire.Update) { w.noteErr(w.AppendUpdate(u)) }

// Truncated journals a cut of the applied log to keep entries
// (store.Journal): checkpoint rollbacks and resolution invalidations.
func (w *WAL) Truncated(file id.FileID, keep int) {
	w.noteErr(w.AppendRollback(file, keep))
}

func (w *WAL) noteErr(err error) {
	if err == nil {
		return
	}
	w.errMu.Lock()
	if w.firstErr == nil {
		w.firstErr = err
	}
	w.errsC.Inc()
	w.errMu.Unlock()
}

// Err returns the first error latched by the journal hooks (nil when the
// journal is healthy). The error is sticky: a journal that failed once
// may have lost records, so the owner should treat the log as torn.
func (w *WAL) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.firstErr
}

// InjectError latches msg as the journal's sticky error without touching
// the disk — the torn-disk fault hook scenario plans script against live
// and emulated clusters alike. The latched error is indistinguishable
// from a real append failure: Err surfaces it, store.wal_errors_total
// counts it, and the owning node's next health tick escalates it to a
// critical wal_fsync_spike anomaly (the log must be treated as torn).
func (w *WAL) InjectError(msg string) {
	w.noteErr(errors.New("injected: " + msg))
}

// InjectSyncDelay brakes every subsequent fsync by d — the slow-disk
// fault hook. The delay is observed by the store.wal_fsync_ms histogram
// exactly like real disk latency, so the health engine's fsync-spike
// detector sees a degraded disk, not a synthetic signal. Zero restores
// the real disk's pace.
func (w *WAL) InjectSyncDelay(d time.Duration) {
	w.syncDelayNS.Store(int64(d))
}

// Sync flushes a file's log to stable storage, recording the latency in
// the store.wal_fsync_ms histogram when metrics are attached.
func (w *WAL) Sync(file id.FileID) error {
	w.mu.RLock()
	wf, hist := w.files[file], w.fsyncMS
	w.mu.RUnlock()
	if wf == nil {
		return nil
	}
	return w.syncFile(wf, hist)
}

// syncFile flushes the file's commit group under its lock and fsyncs
// outside it, so an append to the file — from any shard — waits for the
// write, never for the disk. The fsync covers every byte flushed before
// it started; appends that land during it are covered by the next one.
// A concurrent Close cannot pull the descriptor from under the fsync:
// os.File counts the calls in flight on it and defers the close(2) until
// the last one returns.
func (w *WAL) syncFile(wf *walFile, hist *telemetry.Histogram) error {
	wf.mu.Lock()
	//idealint:allow determinism measures real disk fsync latency at the durability boundary, never replayed
	start := time.Now()
	err := wf.flush()
	wf.mu.Unlock()
	if err != nil {
		w.noteErr(err)
		return err
	}
	if d := time.Duration(w.syncDelayNS.Load()); d > 0 {
		//idealint:allow determinism fault-injection brake emulating a slow disk at the layer real fsync latency arises
		time.Sleep(d)
	}
	err = wf.f.Sync()
	if hist != nil {
		//idealint:allow determinism measures real disk fsync latency at the durability boundary, never replayed
		hist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
	w.noteErr(err)
	return err
}

// SyncAll flushes every open log to stable storage — the periodic
// durability sweep. It returns the first error (also latched into Err).
func (w *WAL) SyncAll() error {
	w.mu.RLock()
	ids := make([]id.FileID, 0, len(w.files))
	for f := range w.files {
		ids = append(ids, f)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	files := make([]*walFile, 0, len(ids))
	for _, f := range ids {
		files = append(files, w.files[f])
	}
	hist := w.fsyncMS
	w.mu.RUnlock()
	var first error
	for _, wf := range files {
		if err := w.syncFile(wf, hist); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes and closes every open log.
func (w *WAL) Close() error {
	w.mu.Lock()
	files := w.files
	w.files = make(map[id.FileID]*walFile)
	w.mu.Unlock()
	var first error
	for _, wf := range files {
		wf.mu.Lock()
		if err := wf.flush(); err != nil && first == nil {
			first = err
		}
		if err := wf.f.Close(); err != nil && first == nil {
			first = err
		}
		wf.mu.Unlock()
	}
	return first
}

// Recover reads a file's log and returns the surviving updates in
// application order, under the recovery contract in the WAL doc: a torn
// tail is discarded and cut from the file, corruption before the last
// record is an error. A file with no log recovers as empty.
func (w *WAL) Recover(file id.FileID) ([]wire.Update, error) {
	// Holding the table lock keeps a first append from opening the log
	// between the scan and the cut.
	w.mu.Lock()
	defer w.mu.Unlock()
	path := w.path(file)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: wal recover: %w", err)
	}
	var log []wire.Update
	end, err := scanLog(data, func(body []byte) error {
		if body[0] == 'u' {
			u, err := wire.DecodeUpdate(body[1:])
			if err == nil {
				log = append(log, u)
			}
			return err
		}
		keep, n := binary.Uvarint(body[1:])
		if n <= 0 || n != len(body)-1 {
			return errors.New("bad rollback marker")
		}
		if keep <= uint64(len(log)) {
			log = log[:keep]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: wal recover %s: %w", path, err)
	}
	// A log already open for append was cut when it was opened; a short
	// record seen now is an append in flight, not a tear.
	if end < len(data) && w.files[file] == nil {
		if err := os.Truncate(path, int64(end)); err != nil {
			return nil, fmt.Errorf("store: wal recover: %w", err)
		}
	}
	return log, nil
}

// Files lists the file IDs with logs present on disk.
func (w *WAL) Files() ([]id.FileID, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, err
	}
	var out []id.FileID
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), walExt)
		if !ok {
			continue
		}
		if file, err := url.PathUnescape(name); err == nil {
			out = append(out, id.FileID(file))
		}
	}
	return out, nil
}

// Replay is crash recovery: it applies every log on disk to st, then
// attaches w as st's journal (after, so replayed updates are not
// journaled again). A log that cannot be recovered is skipped and
// reported in the returned error; its file re-syncs through anti-entropy
// like any lagging replica.
func (w *WAL) Replay(st *Store) error {
	files, err := w.Files()
	if err != nil {
		err = fmt.Errorf("store: wal scan: %w", err)
	}
	for _, file := range files {
		log, rerr := w.Recover(file)
		if rerr != nil {
			err = errors.Join(err, rerr)
			continue
		}
		if len(log) > 0 {
			st.Open(file).ApplyAll(log)
		}
	}
	st.SetJournal(w)
	return err
}
