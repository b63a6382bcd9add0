package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/wire"
)

// WAL persists a node's replicas in one append-only journal per
// directory, giving the "general distributed file system" substrate crash
// durability: on restart a node replays the journal and rejoins with the
// state it had, letting IDEA's detection/resolution reconcile whatever it
// missed while down. Every record names its file, so the replicas of all
// files share the journal: a file's first write creates nothing, and a
// sweep is one flush and one fsync however many files the node holds.
//
// On-disk format: an 8-byte header (walMagic: "IDEAWAL" and a version
// byte) followed by self-delimiting records,
//
//	[u32 len][u32 crc32c][kind][payload]
//
// little-endian, where len counts kind+payload and the CRC (Castagnoli)
// covers the same bytes. Kind 'u' carries one update in the wire codec's
// own encoding (wire.AppendUpdate, which starts with the file ID: the
// journal has no field list of its own); kind 'r' carries the file ID in
// the same encoding and the uvarint log length that survived a rollback.
//
// Recovery contract: a record that is short or fails its CRC and has no
// intact record after it is a torn tail (the crash interrupted its
// write); OpenWAL cuts the journal back to the last intact record
// boundary so later appends follow intact data. The same damage with an
// intact record after it is corruption. A record whose CRC matches but
// whose body does not decode, and a journal that does not start with the
// header (such as one of an earlier format), are rejected the same way:
// OpenWAL sets the journal aside whole as journal.wal.corrupt and starts a
// new one, and Replay and Recover report the error naming the byte
// offset, never a silently shorter log. Every file on the node then
// re-syncs.
//
// Appends are group-committed: records are encoded into one shared buffer
// that reaches the OS in one write once any file's open commit group
// holds SetGroupCommit's N records, or once the buffer holds groupBytes.
// The default group size of 1 writes every append through; a hot node
// raises it and pays one write per N updates of a file, trading a bounded
// tail-loss window (which anti-entropy re-ships) for an order of
// magnitude fewer journal syscalls. SyncAll and Close always write first.
//
// The WAL is safe for concurrent use. An append holds the buffer lock
// only to encode its record; a full group is handed to the write lock
// before the buffer lock is released, so groups reach the file in journal
// order while appends fill the next one, and a SyncAll sweep never holds
// up an append while the disk syncs.
type WAL struct {
	dir string
	// mu guards the open commit group (buf, and each file's record count
	// in it) and fsyncMS.
	mu    sync.Mutex
	buf   []byte
	group map[id.FileID]int
	// wmu orders writes to f and guards spare (the buffer of the last
	// group written, reused for the next) and err, which latches the first
	// failed write: it may have left a partial record on disk, and nothing
	// is written behind one.
	wmu   sync.Mutex
	f     *os.File
	spare []byte
	err   error
	// groupCommit is how many records of one file may accumulate before
	// the buffer is pushed to the OS; anything below 2 flushes every append.
	groupCommit atomic.Int64
	// fsyncMS observes each sweep's flush+fsync latency in milliseconds;
	// nil (no registry attached) is a no-op.
	fsyncMS *telemetry.Histogram

	// rejected is why the journal found at open was set aside (nil if it
	// was not). rmu guards logs: the per-file logs OpenWAL decoded from
	// the journal's intact records, each dropped once Recover or Replay
	// hands it over.
	rejected error
	rmu      sync.Mutex
	logs     map[id.FileID][]wire.Update

	// errMu guards firstErr: the first append error seen via the Journal
	// hook interface, surfaced at the next Err/SyncAll call site (the hooks
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
	walMagic    = "IDEAWAL\x02"
	journalName = "journal.wal"
	recHeader   = 8 // u32 len + u32 crc32c
	// groupBytes bounds the shared buffer: a write is a short copy for the
	// append that triggers it, even when many files each hold a few records.
	groupBytes = 8 << 10
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// errDamaged marks the scan errors that reject a journal, as opposed
	// to the I/O errors of reading one.
	errDamaged = errors.New("damaged journal")
)

// appendRecord appends one framed record to b: kind 'u' carries u, kind
// 'r' (rollback marker) file and the surviving log length keep.
func appendRecord(b []byte, kind byte, file id.FileID, u wire.Update, keep int) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	if kind == 'u' {
		b = wire.AppendUpdate(b, u)
	} else {
		b = binary.AppendUvarint(b, uint64(len(file)))
		b = binary.AppendUvarint(append(b, file...), uint64(keep))
	}
	body := b[start+recHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(body, castagnoli))
	return b
}

// decodeRollback decodes the payload of an 'r' record.
func decodeRollback(p []byte) (id.FileID, uint64, error) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return "", 0, errors.New("bad rollback marker")
	}
	keep, m := binary.Uvarint(p[k+int(n):])
	if m <= 0 || k+int(n)+m != len(p) {
		return "", 0, errors.New("bad rollback marker")
	}
	return id.FileID(p[k : k+int(n)]), keep, nil
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

// readTo reads from r until b holds n bytes or r ends.
func readTo(r io.Reader, b []byte, n int) ([]byte, error) {
	b = slices.Grow(b, n-len(b))
	m, err := io.ReadFull(r, b[len(b):n])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return b[:len(b)+m], err
}

// scanLog walks the first size bytes of a journal, handing the body of
// every intact record to visit (which may be nil, and must not keep body),
// and returns the offset just past the last intact record. Damage with
// nothing intact behind it is a torn tail and ends the walk without error;
// damage followed by an intact record is corruption, and so is a record
// visit fails on. Records are read one at a time; only behind damage is
// the rest of the journal read at once.
func scanLog(ra io.ReaderAt, size int64, visit func(body []byte) error) (int64, error) {
	r := bufio.NewReaderSize(io.NewSectionReader(ra, 0, size), 64<<10)
	rec, err := readTo(r, nil, len(walMagic))
	if err != nil {
		return 0, err
	}
	if string(rec) != walMagic[:len(rec)] {
		return 0, fmt.Errorf("%w: no header (journals of earlier formats are not read)", errDamaged)
	}
	if len(rec) < len(walMagic) {
		return 0, nil // empty, or torn while the header was being written
	}
	off := int64(len(rec))
	for off < size {
		rec, err = readTo(r, rec[:0], recHeader)
		if len(rec) == recHeader {
			if body := int64(binary.LittleEndian.Uint32(rec)); body <= size-off-recHeader {
				rec, err = readTo(r, rec, recHeader+int(body))
			}
		}
		if err != nil {
			return off, err
		}
		n, intact := frameLen(rec)
		if !intact {
			// Torn or corrupt? Look for an intact record behind the damage.
			// The search gives up (and says corrupt, the answer that loses
			// nothing silently) once it has checksummed 4x the journal,
			// which only payload bytes crafted to look like frames can cost.
			rest, err := io.ReadAll(r)
			tail, work := append(rec, rest...), int64(0)
			for p := 1; p < len(tail) && err == nil; p++ {
				m, found := frameLen(tail[p:])
				if work += int64(m); found || work > 4*size {
					return off, fmt.Errorf("%w: corrupt record at byte offset %d (more than a torn tail follows it)", errDamaged, off)
				}
			}
			return off, err
		}
		if visit != nil {
			if err := visit(rec[recHeader:n]); err != nil {
				return off, fmt.Errorf("%w: record at byte offset %d: %w", errDamaged, off, err)
			}
		}
		off += int64(n)
	}
	return off, nil
}

// OpenWAL opens (creating if needed) the journal in dir and decodes it, in
// one pass, into the per-file logs Recover and Replay hand over. A torn
// tail is cut off first, so nothing is ever appended behind bytes
// recovery stops at. A journal recovery rejects (corrupt, a record that
// does not decode, or not this format) is set aside as
// journal.wal.corrupt and a new one started, because the node's replicas
// restart empty and rollback markers count from the applied log; Replay
// and Recover report why.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	w := &WAL{dir: dir, group: make(map[id.FileID]int)}
	if err := w.open(filepath.Join(dir, journalName)); err != nil {
		if w.f != nil {
			w.f.Close()
		}
		return nil, fmt.Errorf("store: wal open: %w", err)
	}
	return w, nil
}

// open opens the journal at path for append at its last intact record
// boundary, first setting a rejected journal aside.
func (w *WAL) open(path string) (err error) {
	if w.f, err = os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644); err != nil {
		return err
	}
	fi, err := w.f.Stat()
	if err != nil {
		return err
	}
	w.logs = make(map[id.FileID][]wire.Update)
	size, err := scanLog(w.f, fi.Size(), w.decode)
	if errors.Is(err, errDamaged) && w.rejected == nil {
		w.rejected = fmt.Errorf("store: wal %s: %w; set aside as %s.corrupt", path, err, journalName)
		if err = errors.Join(w.f.Close(), os.Rename(path, path+".corrupt")); err == nil {
			return w.open(path)
		}
	}
	if err == nil && size < fi.Size() {
		err = w.f.Truncate(size)
	}
	if err == nil && size == 0 {
		_, err = w.f.WriteString(walMagic)
	}
	return err
}

// SetGroupCommit sets how many appended records of one file may sit in
// the in-memory buffer before it is pushed to the OS (minimum 1 = flush
// per append). Records held in the buffer are lost on crash and
// anti-entropy re-ships them, so raising the group size costs at most a
// re-sync window, never correctness.
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

// append encodes one record into the open commit group and writes the
// group out once it is full.
func (w *WAL) append(file id.FileID, kind byte, u wire.Update, keep int) error {
	w.mu.Lock()
	w.buf = appendRecord(w.buf, kind, file, u, keep)
	n := w.group[file] + 1
	if n < int(w.groupCommit.Load()) && len(w.buf) < groupBytes {
		w.group[file] = n
		w.mu.Unlock()
		return nil
	}
	return w.write()
}

// write writes the open commit group to the OS. The caller holds mu;
// write takes the write lock before releasing it, so groups reach the
// file in the order they were taken while appends fill the next one.
func (w *WAL) write() error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	buf := w.buf
	w.buf, w.spare = w.spare[:0], nil
	clear(w.group)
	w.mu.Unlock()
	if w.err == nil && len(buf) > 0 {
		if _, err := w.f.Write(buf); err != nil {
			w.err = fmt.Errorf("store: wal write: %w", err)
		}
	}
	w.spare = buf
	return w.err
}

// AppendUpdate records one applied update (reaching the OS by the next
// group-commit flush).
func (w *WAL) AppendUpdate(u wire.Update) error { return w.append(u.File, 'u', u, 0) }

// AppendRollback records that the file's replica rolled back to keep updates.
func (w *WAL) AppendRollback(file id.FileID, keep int) error {
	return w.append(file, 'r', wire.Update{}, keep)
}

// ---- store.Journal hooks ----
//
// Appended and Truncated let a WAL plug directly into Store.SetJournal:
// every update the store applies and every rollback/invalidation
// truncation is journaled automatically. The hooks run inside the
// store's apply path, which has no error channel, so failures latch into
// the WAL's sticky error and surface at the next Err or SyncAll.

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

// SyncAll writes the open commit group and fsyncs the journal — the
// periodic durability sweep — recording the latency in the
// store.wal_fsync_ms histogram when metrics are attached. The fsync runs
// outside both locks, so an append waits for the write, never for the
// disk; it covers every byte written before it started, and appends that
// land during it are covered by the next one. A concurrent Close cannot
// pull the descriptor from under it: os.File counts the calls in flight
// and defers the close(2) until the last one returns. SyncAll returns the
// first error (also latched into Err).
func (w *WAL) SyncAll() error {
	w.mu.Lock()
	//idealint:allow determinism measures real disk fsync latency at the durability boundary, never replayed
	start := time.Now()
	hist := w.fsyncMS
	err := w.write()
	if err == nil {
		if d := time.Duration(w.syncDelayNS.Load()); d > 0 {
			//idealint:allow determinism fault-injection brake emulating a slow disk at the layer real fsync latency arises
			time.Sleep(d)
		}
		err = w.f.Sync()
		//idealint:allow determinism measures real disk fsync latency at the durability boundary, never replayed
		hist.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
	w.noteErr(err)
	return err
}

// Close writes the open commit group and closes the journal.
func (w *WAL) Close() error {
	w.mu.Lock()
	err := w.write()
	if cerr := w.f.Close(); err == nil && !errors.Is(cerr, os.ErrClosed) {
		err = cerr
	}
	return err
}

// decode applies one intact record's body to the per-file logs.
func (w *WAL) decode(body []byte) error {
	if body[0] == 'u' {
		u, err := wire.DecodeUpdate(body[1:])
		if err == nil {
			w.logs[u.File] = append(w.logs[u.File], u)
		}
		return err
	}
	file, keep, err := decodeRollback(body[1:])
	if log := w.logs[file]; err == nil && keep <= uint64(len(log)) {
		w.logs[file] = log[:keep]
	}
	return err
}

// Recover returns a file's surviving updates in application order, as
// the journal held them when OpenWAL opened it, under the recovery
// contract in the WAL doc: a rejected journal fails every file. OpenWAL
// decoded the whole journal in one pass; each file's log is handed over
// once and dropped, so the WAL keeps no copy. A file with no records
// recovers as empty.
func (w *WAL) Recover(file id.FileID) ([]wire.Update, error) {
	w.rmu.Lock()
	defer w.rmu.Unlock()
	if w.rejected != nil {
		return nil, w.rejected
	}
	log := w.logs[file]
	delete(w.logs, file)
	return log, nil
}

// Replay is crash recovery: it applies every file's log in the journal
// to st, then attaches w as st's journal (after, so replayed updates are
// not journaled again). A journal that cannot be recovered replays
// nothing and is reported in the returned error; every file re-syncs
// through anti-entropy like any lagging replica.
func (w *WAL) Replay(st *Store) error {
	w.rmu.Lock()
	err := w.rejected
	for _, file := range slices.Sorted(maps.Keys(w.logs)) {
		if log := w.logs[file]; len(log) > 0 {
			st.Open(file).ApplyAll(log)
		}
		delete(w.logs, file)
	}
	w.rmu.Unlock()
	st.SetJournal(w)
	return err
}
