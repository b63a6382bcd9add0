// Package store is the "general distributed file system" substrate IDEA
// assumes underneath it (§2): a per-node replica store that handles
// ordinary read/write operations, keeps a per-writer-indexed update log
// per shared file, and supports the snapshots and rollback the IDEA
// protocol needs (§4.4.2). IDEA provides consistency control *to* this
// store; the store itself only guarantees read/write correctness on the
// local replica. Long-running nodes stay bounded: remote updates are
// integrated strictly in per-writer sequence order (gapped arrivals are
// buffered), the log prefix below a gossip-learned stability frontier is
// compacted away, and checkpoints are pruned beyond a cap.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/vv"
	"idea/internal/wire"
)

// storeMetrics are the telemetry handles shared by a store and its
// replicas; zero-value (nil) handles are no-ops.
type storeMetrics struct {
	replicas     *telemetry.Gauge   // open replicas
	logEntries   *telemetry.Gauge   // live (uncompacted) updates across replicas
	checkpoints  *telemetry.Gauge   // live checkpoints across replicas
	pending      *telemetry.Gauge   // buffered out-of-order updates
	windowStamps *telemetry.Gauge   // vector window occupancy across replicas
	applied      *telemetry.Counter // updates applied (local + remote)
	compacted    *telemetry.Counter // log entries pruned below the stability frontier
	invalidated  *telemetry.Counter // updates dropped by invalidation
	rollbacks    *telemetry.Counter // checkpoint rollbacks executed
	undone       *telemetry.Counter // updates undone by rollbacks
}

// Journal observes replica mutations for durability. A Store with a
// journal attached (SetJournal) reports every applied update — whatever
// path it arrives by: local write, remote apply, gap-closing drain,
// resolution adoption — and every truncation of the applied log
// (checkpoint rollback, invalidating adoption). The hooks run
// synchronously inside the mutation, on the file's own shard, so a
// journal only needs to tolerate concurrent calls for *different* files.
//
// A snapshot transfer's seed (BeginSnapshot) is not journaled: a
// snapshot-seeded prefix exists only as a vector base, with no updates
// to replay. A journal-backed node that bootstraps from a snapshot must
// re-bootstrap on recovery; anti-entropy reconciles the difference.
type Journal interface {
	// Appended is called after u was applied to the replica's log.
	Appended(u wire.Update)
	// Truncated is called after the applied log was cut; keep is the
	// surviving absolute length (compacted prefix included).
	Truncated(file id.FileID, keep int)
}

const (
	// DefaultMaxCheckpoints bounds the live checkpoints per replica; the
	// oldest is pruned when a new one would exceed it.
	DefaultMaxCheckpoints = 8
	// maxPendingPerWriter bounds the out-of-order buffer per writer.
	// Overflowing updates are shed — anti-entropy re-ships them once the
	// gap closes, so shedding costs latency, never correctness.
	maxPendingPerWriter = 256
)

// Replica is one node's copy of one shared file: the applied update log,
// a per-writer index over it, and the extended version vector describing
// it. Remote updates are integrated strictly in per-writer sequence
// order; out-of-order arrivals are buffered until the gap closes, so the
// vector's counts always describe a gapless prefix of every writer's
// updates.
//
// The arrival log holds the only copy of each applied update. The
// per-writer index holds no updates: one entry per writer, ascending by
// writer, with the writer's compaction base and the arrival positions of
// its live updates. The log grows by doubling, so applying an update
// copies it about twice over the log's life, whatever its depth.
type Replica struct {
	File    id.FileID
	Owner   id.NodeID
	log     []wire.Update // live arrival-order log (suffix after compaction)
	logBase int           // arrival-log entries compacted away
	// writers is the per-writer index, ascending by writer.
	writers []writerIndex
	// pending buffers gapped arrivals (by writer, by seq) until the
	// writer's prefix is contiguous again.
	pending map[id.NodeID]map[int]wire.Update
	vec     *vv.Vector
	nextSeq int

	// logWaste counts prefix entries resliced (not yet copied) off the
	// arrival log by compaction; the log and every writer's positions are
	// reallocated once waste exceeds the live length, so compaction is
	// amortized O(pruned) instead of O(live log) per call.
	logWaste int
	// compactedMeta remembers the critical-metadata value as of the
	// newest compacted update, so invalidation that empties the live log
	// can still restore a meaningful Meta.
	compactedMeta float64

	// checkpoint support (§4.4.2 rollback)
	checkpoints    []checkpoint
	maxCheckpoints int
	// spare is the vector of the last checkpoint dropped, pruned or
	// rolled past; the next Checkpoint refills it instead of allocating.
	// Checkpoint vectors are private to the replica, so nothing else
	// holds it.
	spare *vv.Vector

	// lastTC is the trace context of the most recent sampled local write;
	// gossip digests for this file are tagged with it so the bottom-layer
	// hop shows up on that write's timeline.
	lastTC tracing.Context

	met     storeMetrics
	journal Journal
}

// writerIndex is one writer's entry in the per-writer index: base of its
// updates were compacted away, and pos[i] is the absolute arrival position
// (logBase included) of its update with Seq == base+i+1. Positions are
// int64 so a long-lived replica never overflows them, and they ascend,
// since a writer's updates arrive in sequence order.
type writerIndex struct {
	w    id.NodeID
	base int
	pos  []int64
}

// minLogGrowth is the fewest entries the log or a position list grows by.
const minLogGrowth = 8

// regrow returns a copy of s with room to double: the log and position
// lists grow by doubling instead of append's large-slice step, which
// copies each element several times over.
func regrow[E any](s []E) []E {
	return append(make([]E, 0, 2*len(s)+minLogGrowth), s...)
}

type checkpoint struct {
	token  int64
	logLen int // absolute applied-log length (logBase + live length)
	vec    *vv.Vector
}

// NewReplica returns an empty replica of file owned by node owner.
func NewReplica(file id.FileID, owner id.NodeID) *Replica {
	return &Replica{
		File:           file,
		Owner:          owner,
		pending:        make(map[id.NodeID]map[int]wire.Update),
		vec:            vv.New(),
		maxCheckpoints: DefaultMaxCheckpoints,
	}
}

// Vector returns a snapshot of the replica's extended version vector, at
// O(writers) cost (see vv.Vector.Clone); later writes never show through
// it, and callers may ship it over the wire freely.
func (r *Replica) Vector() *vv.Vector { return r.vec.Clone() }

// LiveVector returns the replica's own vector, not a copy: a read-only
// look for a handler in the file's serialization domain that needs the
// vector only until it returns. It changes with every apply, rollback and
// adoption, so it must never be shipped, retained past the handler or
// modified. Anything that outlives the handler takes a copy: Vector,
// Counts, or the vector's Clone or Above.
func (r *Replica) LiveVector() *vv.Vector { return r.vec }

// Counts returns the replica's vector without stamp windows (see
// vv.Vector.Counts): what a message needs when its receiver only reads
// counts.
func (r *Replica) Counts() *vv.Vector { return r.vec.Counts() }

// Meta returns the current critical-metadata value.
func (r *Replica) Meta() float64 { return r.vec.Meta }

// Len returns the number of applied updates, including any compacted
// below the stability frontier (buffered out-of-order updates excluded).
func (r *Replica) Len() int { return r.logBase + len(r.log) }

// Pending returns the number of buffered out-of-order updates.
func (r *Replica) Pending() int {
	n := 0
	for _, p := range r.pending {
		n += len(p)
	}
	return n
}

// Compacted returns how many applied updates have been pruned from the
// live log by CompactBelow.
func (r *Replica) Compacted() int { return r.logBase }

// Log returns the live applied update log in application order (entries
// compacted below the stability frontier are gone): the replica's own
// log, which holds the only copy of each update, not a copy of it. It is
// read-only, and it never changes after return — the replica never
// rewrites an element it has handed out — so once passed to another
// goroutine (over a channel, say) it may be read there while the replica
// keeps mutating. Appending to it is safe (its capacity is capped, so
// append reallocates); writing an element corrupts the replica.
func (r *Replica) Log() []wire.Update { return slices.Clip(r.log) }

// View is an immutable snapshot of a replica's per-writer index: the live
// log as Log returns it, and each writer's compaction base and the
// positions of its live updates in that log. Taking one costs O(writers)
// — it copies slice headers, neither updates nor positions — and, like
// Log, it never changes afterwards, whatever the replica applies, rolls
// back, invalidates or compacts.
type View struct {
	log     []wire.Update
	logBase int
	writers []writerIndex // writers with live updates, ascending
}

// View returns a snapshot of the replica's per-writer index.
func (r *Replica) View() View {
	v := View{log: r.Log(), logBase: r.logBase, writers: make([]writerIndex, 0, len(r.writers))}
	for _, wi := range r.writers {
		if len(wi.pos) > 0 {
			v.writers = append(v.writers, writerIndex{w: wi.w, base: wi.base, pos: slices.Clip(wi.pos)})
		}
	}
	return v
}

// Writers returns the writers with live updates in the view, ascending.
func (v View) Writers() []id.NodeID {
	ws := make([]id.NodeID, len(v.writers))
	for i, wi := range v.writers {
		ws[i] = wi.w
	}
	return ws
}

// Range returns writer w's live updates with after < Seq <= upTo in
// sequence order, gathered from the log into a new slice (nil when there
// are none). Updates compacted below the writer's base are not in the
// view.
func (v View) Range(w id.NodeID, after, upTo int) []wire.Update {
	i, ok := findWriter(v.writers, w)
	if !ok {
		return nil
	}
	wi := v.writers[i]
	lo, hi := max(after-wi.base, 0), min(upTo-wi.base, len(wi.pos))
	if lo >= hi {
		return nil
	}
	out := make([]wire.Update, hi-lo)
	for j, p := range wi.pos[lo:hi] {
		out[j] = v.log[p-int64(v.logBase)]
	}
	return out
}

// findWriter returns the index of writer w in the writer-sorted index, or
// where it would be inserted, and whether it is there.
func findWriter(ws []writerIndex, w id.NodeID) (int, bool) {
	return slices.BinarySearchFunc(ws, w, func(wi writerIndex, w id.NodeID) int { return cmp.Compare(wi.w, w) })
}

// writer returns writer w's index entry, adding an empty one first when w
// has none.
func (r *Replica) writer(w id.NodeID) *writerIndex {
	i, ok := findWriter(r.writers, w)
	if !ok {
		r.writers = slices.Insert(r.writers, i, writerIndex{w: w})
	}
	return &r.writers[i]
}

// index returns writer w's index entry, or the zero entry when w has
// none.
func (r *Replica) index(w id.NodeID) writerIndex {
	if i, ok := findWriter(r.writers, w); ok {
		return r.writers[i]
	}
	return writerIndex{}
}

// keepIf drops the live updates keep rejects, in order, calling keep once
// per update. The kept prefix before the first rejected update is shared
// with the old log; everything after it goes to a fresh array, so no
// element a Log or View handed out earlier is ever overwritten, and only
// the positions of that suffix are rebuilt.
func (r *Replica) keepIf(keep func(wire.Update) bool) {
	cut := slices.IndexFunc(r.log, func(u wire.Update) bool { return !keep(u) })
	if cut < 0 {
		return
	}
	kept := r.log[:cut:cut]
	for _, u := range r.log[cut+1:] {
		if keep(u) {
			kept = append(kept, u)
		}
	}
	r.log = kept
	at := int64(r.logBase + cut)
	for i := range r.writers {
		wi := &r.writers[i]
		n, _ := slices.BinarySearch(wi.pos, at)
		wi.pos = wi.pos[:n:n]
	}
	for i, u := range r.log[cut:] {
		wi := r.writer(u.Writer)
		wi.pos = append(wi.pos, at+int64(i))
	}
}

// WriteLocal appends a local write by the owner: it assigns the next
// per-writer sequence number, stamps it, ticks the version vector, and
// returns the update for dissemination/detection.
func (r *Replica) WriteLocal(at vv.Stamp, op string, data []byte, meta float64) wire.Update {
	return r.WriteLocalTraced(at, op, data, meta, tracing.Context{})
}

// WriteLocalTraced is WriteLocal carrying the write's causal trace
// context: the update ships it to every replica that later applies it,
// and the replica remembers it as the file's most recent sampled write
// (see LastTrace). The zero context is the unsampled common case.
func (r *Replica) WriteLocalTraced(at vv.Stamp, op string, data []byte, meta float64, tc tracing.Context) wire.Update {
	// Resync with the vector: the owner's own undone-then-re-shipped
	// updates may have been applied through Apply/drain since the last
	// local write, and reissuing one of those sequence numbers would
	// permanently corrupt the log.
	if c := r.vec.Count(r.Owner); c > r.nextSeq {
		r.nextSeq = c
	}
	r.nextSeq++
	u := wire.Update{
		File:   r.File,
		Writer: r.Owner,
		Seq:    r.nextSeq,
		At:     at,
		Meta:   meta,
		Op:     op,
		Data:   data,
		TC:     tc,
	}
	if tc.Sampled() {
		r.lastTC = tc
	}
	r.apply(u)
	r.drain(r.Owner)
	return u
}

// LastTrace returns the trace context of the most recent sampled local
// write (zero when tracing is off or no sampled write happened yet).
func (r *Replica) LastTrace() tracing.Context { return r.lastTC }

// Apply integrates a remote update. Duplicates (by writer+seq) are
// ignored. A gapped arrival — the writer's next expected sequence number
// has not been applied yet — is buffered and applied once the gap closes,
// so the version vector is never ticked out of order. It returns true
// when the update was new (applied or buffered).
func (r *Replica) Apply(u wire.Update) bool {
	if u.File != r.File {
		return false
	}
	c := r.vec.Count(u.Writer)
	if u.Seq <= c {
		return false // duplicate (or already compacted)
	}
	if u.Seq == c+1 {
		r.apply(u)
		r.drain(u.Writer)
		return true
	}
	p := r.pending[u.Writer]
	if p == nil {
		p = make(map[int]wire.Update)
		r.pending[u.Writer] = p
	}
	if _, dup := p[u.Seq]; dup {
		return false
	}
	if len(p) >= maxPendingPerWriter {
		return false // shed; anti-entropy re-ships once the gap closes
	}
	p[u.Seq] = u
	r.met.pending.Add(1)
	return true
}

// drain applies buffered updates of writer w that have become contiguous.
func (r *Replica) drain(w id.NodeID) {
	p := r.pending[w]
	for len(p) > 0 {
		u, ok := p[r.vec.Count(w)+1]
		if !ok {
			return
		}
		delete(p, u.Seq)
		r.met.pending.Add(-1)
		r.apply(u)
	}
	delete(r.pending, w)
}

func (r *Replica) apply(u wire.Update) {
	if len(r.log) == cap(r.log) {
		r.log = regrow(r.log)
	}
	r.log = append(r.log, u)
	wi := r.writer(u.Writer)
	wi.pos = append(wi.pos, int64(r.logBase+len(r.log)-1))
	// Only the ticked writer's window can change, and Tick reports by how
	// much — apply is the hottest path in the store.
	r.met.windowStamps.Add(int64(r.vec.Tick(u.Writer, u.At, u.Meta)))
	r.met.logEntries.Add(1)
	r.met.applied.Inc()
	if r.journal != nil {
		r.journal.Appended(u)
	}
}

// ApplyAll integrates a batch, returning how many were new.
func (r *Replica) ApplyAll(us []wire.Update) int {
	n := 0
	for _, u := range us {
		if r.Apply(u) {
			n++
		}
	}
	return n
}

// MissingFrom returns the updates in r's log that the holder of the remote
// vector has not seen, ordered by (writer, seq) — the payload a resolution
// Inform or anti-entropy reply ships. The per-writer index makes this
// O(missing + writers): only the missing positions of each writer are
// read, independent of total update history.
func (r *Replica) MissingFrom(remote *vv.Vector) []wire.Update {
	// missing returns the positions of wi's updates the remote lacks.
	missing := func(wi writerIndex) []int64 {
		rc := remote.Count(wi.w)
		if rc < wi.base {
			// The remote is missing part of our compacted prefix: our
			// live suffix would only sit in its pending buffer forever
			// (the gap is un-closable from here), so ship nothing. By
			// the frontier's construction no current member is ever in
			// this state; only a node added after pruning is, and it
			// needs a peer that still holds the prefix.
			return nil
		}
		return wi.pos[min(rc-wi.base, len(wi.pos)):]
	}
	total := 0
	for _, wi := range r.writers {
		total += len(missing(wi))
	}
	if total == 0 {
		return nil
	}
	out := make([]wire.Update, 0, total)
	for _, wi := range r.writers {
		for _, p := range missing(wi) {
			out = append(out, r.log[p-int64(r.logBase)])
		}
	}
	return out
}

// Checkpoint records a named snapshot the replica can later roll back to.
// IDEA takes one before letting a user continue on a top-layer-only
// consistency verdict; if the bottom-layer sweep later disagrees, the
// operations since the checkpoint are rolled back (§4.4.2). The oldest
// checkpoint is pruned when more than the configured maximum would be
// live — pruning only forfeits the ability to roll that far back.
//
// The checkpoint's vector is a Clone of the replica's, refilled into the
// vector of the checkpoint dropped last (vv.Vector.CloneInto), so a
// steady checkpoint-per-verdict cycle allocates nothing.
func (r *Replica) Checkpoint(token int64) {
	r.checkpoints = append(r.checkpoints, checkpoint{
		token:  token,
		logLen: r.logBase + len(r.log),
		vec:    r.vec.CloneInto(r.spare),
	})
	r.spare = nil
	r.met.checkpoints.Add(1)
	if max := r.maxCheckpoints; max > 0 && len(r.checkpoints) > max {
		drop := len(r.checkpoints) - max
		r.spare = r.checkpoints[drop-1].vec
		r.checkpoints = append(r.checkpoints[:0], r.checkpoints[drop:]...)
		r.met.checkpoints.Add(-int64(drop))
	}
}

// SetMaxCheckpoints bounds the live checkpoints (0 disables pruning).
func (r *Replica) SetMaxCheckpoints(n int) { r.maxCheckpoints = n }

// Rollback reverts the replica to the checkpoint with the given token and
// discards it and any later checkpoints. It returns the updates that were
// undone, newest first, or an error when the token is unknown. The undo
// boundary is per-writer — every update beyond the checkpoint's count for
// its writer goes — not an arrival-length cut, which would miscount when
// an invalidation since the checkpoint removed mid-log entries.
func (r *Replica) Rollback(token int64) ([]wire.Update, error) {
	for i := len(r.checkpoints) - 1; i >= 0; i-- {
		cp := r.checkpoints[i]
		if cp.token != token {
			continue
		}
		var undone []wire.Update
		r.keepIf(func(u wire.Update) bool {
			if u.Seq > cp.vec.Count(u.Writer) {
				undone = append(undone, u)
				return false
			}
			return true
		})
		// Newest first, per the contract.
		slices.Reverse(undone)
		gaugeBefore := r.vec.WindowStamps()
		r.vec = cp.vec.Clone()
		r.spare = cp.vec
		// An invalidation since the checkpoint may have removed entries
		// the checkpoint still counts; the restored vector must never
		// advertise updates the surviving index cannot ship.
		for _, w := range r.vec.Writers() {
			wi := r.index(w)
			r.vec.TruncateWriter(w, wi.base+len(wi.pos))
		}
		r.met.windowStamps.Add(int64(r.vec.WindowStamps() - gaugeBefore))
		// A rolled-back local write must not leave a gap in the
		// writer's own sequence numbers.
		r.nextSeq = r.vec.Count(r.Owner)
		r.met.checkpoints.Add(-int64(len(r.checkpoints) - i))
		r.checkpoints = r.checkpoints[:i]
		r.met.logEntries.Add(-int64(len(undone)))
		r.met.rollbacks.Inc()
		r.met.undone.Add(int64(len(undone)))
		if r.journal != nil {
			r.journal.Truncated(r.File, r.logBase+len(r.log))
		}
		return undone, nil
	}
	return nil, fmt.Errorf("store: unknown checkpoint %d for %v", token, r.File)
}

// DropCheckpoint discards a checkpoint without rolling back (the
// bottom-layer sweep confirmed the top-layer verdict).
func (r *Replica) DropCheckpoint(token int64) {
	for i, cp := range r.checkpoints {
		if cp.token == token {
			r.spare = cp.vec
			r.checkpoints = append(r.checkpoints[:i], r.checkpoints[i+1:]...)
			r.met.checkpoints.Add(-1)
			return
		}
	}
}

// Checkpoints returns the number of live checkpoints.
func (r *Replica) Checkpoints() int { return len(r.checkpoints) }

// AdoptImage replaces the replica's content with the consistent image
// decided by a resolution: the winner's missing updates are applied and,
// when the local replica holds invalidated extra updates (the
// invalidate-both policy), those are dropped first. adoptVec is the
// winning vector; updates are the ones this replica is missing.
// It returns how many updates were applied and how many local updates
// were invalidated.
func (r *Replica) AdoptImage(adoptVec *vv.Vector, updates []wire.Update, invalidateExtras bool) (applied, invalidated int) {
	if invalidateExtras {
		// The compacted prefix is frontier-stable (every peer holds it),
		// so an adopted image can never invalidate below it; clamping
		// keeps the index's base invariant intact even against a
		// pathological image that claims fewer updates than the frontier.
		adoptCount := func(w id.NodeID) int {
			return max(adoptVec.Count(w), r.index(w).base)
		}
		// Invalidated sequence numbers will be reissued by their
		// writers, so buffered out-of-order updates beyond the adopted
		// image are stale and must go too.
		for w, p := range r.pending {
			for s := range p {
				if s > adoptCount(w) {
					delete(p, s)
					r.met.pending.Add(-1)
				}
			}
			if len(p) == 0 {
				delete(r.pending, w)
			}
		}
		// The per-writer index tells in O(writers) whether anything goes;
		// only then is the arrival log walked.
		for _, wi := range r.writers {
			if wi.base+len(wi.pos) > adoptCount(wi.w) {
				r.keepIf(func(u wire.Update) bool {
					if u.Seq <= adoptCount(u.Writer) {
						return true
					}
					invalidated++
					return false
				})
				break
			}
		}
		r.met.logEntries.Add(-int64(invalidated))
		r.met.invalidated.Add(int64(invalidated))
		if invalidated > 0 {
			// Truncate the vector entries to the adopted image; the
			// compacted prefix (and its window bookkeeping) stays
			// intact.
			before := r.vec.WindowStamps()
			for _, wi := range r.writers {
				r.vec.TruncateWriter(wi.w, adoptCount(wi.w))
			}
			r.met.windowStamps.Add(int64(r.vec.WindowStamps() - before))
			// Checkpoint vectors must shrink with the image too: their
			// counts feed StableVector (the gossiped rollback floor),
			// and a stale floor above the real replica state would let
			// the frontier — and therefore compaction — outrun what
			// lagging peers have actually received.
			for ci := range r.checkpoints {
				cp := &r.checkpoints[ci]
				for _, w := range cp.vec.Writers() {
					cp.vec.TruncateWriter(w, adoptCount(w))
				}
				if abs := r.logBase + len(r.log); cp.logLen > abs {
					cp.logLen = abs
				}
			}
			// The metadata value now reflects the newest surviving
			// update (matching a replay of the surviving log), falling
			// back to the compacted prefix's value when the whole live
			// log was invalidated.
			r.vec.Meta = r.compactedMeta
			if n := len(r.log); n > 0 {
				r.vec.Meta = r.log[n-1].Meta
			}
			r.nextSeq = r.vec.Count(r.Owner)
		}
		if invalidated > 0 && r.journal != nil {
			r.journal.Truncated(r.File, r.logBase+len(r.log))
		}
	}
	applied = r.ApplyAll(updates)
	return applied, invalidated
}

// CompactBelow prunes the live log below a stability frontier: per-writer
// counts known (from gossiped digests) to be replicated everywhere. Only
// the arrival-order prefix is considered, so checkpoint arithmetic stays
// exact, and pruning never passes the oldest live checkpoint. It returns
// how many entries were pruned. The pruned updates can no longer be
// shipped by MissingFrom — by the frontier's construction no correct peer
// still needs them.
//
// Compaction is in-memory only: a WAL keeps the full journal (and
// restart replays it in full, with logBase reset to 0), so do not enable
// frontier compaction on WAL-backed replicas until the journal learns
// compaction markers.
func (r *Replica) CompactBelow(stable map[id.NodeID]int) int {
	limit := len(r.log)
	for _, cp := range r.checkpoints {
		if rel := cp.logLen - r.logBase; rel < limit {
			limit = rel
		}
	}
	k := 0
	for k < limit && r.log[k].Seq <= stable[r.log[k].Writer] {
		k++
	}
	if k == 0 {
		return 0
	}
	// The pruned updates are the first k arrival positions, so each
	// writer drops the prefix of its positions below logBase+k.
	end := int64(r.logBase + k)
	for i := range r.writers {
		wi := &r.writers[i]
		n, _ := slices.BinarySearch(wi.pos, end)
		wi.base += n
		wi.pos = wi.pos[n:]
	}
	r.compactedMeta = r.log[k-1].Meta
	r.log = r.log[k:]
	r.logBase += k
	// Reslice the pruned prefixes away; reallocate the backing arrays only
	// once the log's dead prefix outgrows the live remainder (the writers'
	// dead prefixes add up to the log's), so repeated small prunes cost
	// O(pruned) amortized, not O(live) each. The copies keep room to
	// double, so the next apply does not copy them again.
	if r.logWaste += k; r.logWaste > len(r.log) {
		r.log = regrow(r.log)
		for i := range r.writers {
			r.writers[i].pos = regrow(r.writers[i].pos)
		}
		r.logWaste = 0
	}
	before := r.vec.WindowStamps()
	r.vec.Compact(0)
	r.met.windowStamps.Add(int64(r.vec.WindowStamps() - before))
	r.met.logEntries.Add(-int64(k))
	r.met.compacted.Add(int64(k))
	return k
}

// bases returns every writer's positive compaction base.
func (r *Replica) bases() map[id.NodeID]int {
	base := make(map[id.NodeID]int)
	for _, wi := range r.writers {
		if wi.base > 0 {
			base[wi.w] = wi.base
		}
	}
	return base
}

// setBases seeds an empty replica's per-writer compaction bases, and the
// log's, from a snapshot.
func (r *Replica) setBases(base map[id.NodeID]int) {
	for w, b := range base {
		if b > 0 {
			r.writer(w).base = b
			r.logBase += b
		}
	}
}

// SnapshotWindow exports one bounded window of the replica's
// transferable state for chunked join bootstrap: the full version
// vector and compaction base (every chunk is self-describing, so a
// transfer can resume from any offset), plus at most maxUpdates live
// updates — or fewer, once their payload bytes exceed maxBytes — in
// arrival order starting at absolute log position offset. start is the
// clamped position actually served (it can exceed the requested offset
// when compaction pruned past it, and is capped at end); end is the
// absolute log length at serve time. The sender never materializes more
// than one window.
func (r *Replica) SnapshotWindow(offset, maxUpdates, maxBytes int) (vec *vv.Vector, base map[id.NodeID]int, prefixMeta float64, start int, updates []wire.Update, end int) {
	end = r.logBase + len(r.log)
	start = offset
	if start < r.logBase {
		start = r.logBase
	}
	if start > end {
		start = end
	}
	k := start - r.logBase
	bytes := 0
	i := k
	for i < len(r.log) && i-k < maxUpdates && bytes < maxBytes {
		bytes += len(r.log[i].Data) + len(r.log[i].Op) + 64
		i++
	}
	if i > k {
		updates = append([]wire.Update(nil), r.log[k:i]...)
	}
	return r.vec.Clone(), r.bases(), r.compactedMeta, start, updates, end
}

// BeginSnapshot prepares an empty replica to stream a chunked snapshot
// in: it adopts the sender's compaction base and prefix metadata and
// seeds the vector with the base counts, so the chunks' updates then
// integrate through the normal Apply path (which enforces per-writer
// contiguity and dedups retransmitted overlap). It only applies to an
// empty replica — one that already holds updates converges through the
// normal protocol instead — and reports whether it happened. The
// transfer completes with FinishSnapshot.
func (r *Replica) BeginSnapshot(base map[id.NodeID]int, prefixMeta float64) bool {
	if r.logBase+len(r.log) > 0 || r.Pending() > 0 {
		return false
	}
	r.setBases(base)
	for _, wi := range r.writers {
		if wi.base > 0 {
			r.vec.SetEntry(wi.w, vv.Entry{Count: wi.base, Base: wi.base})
		}
	}
	r.compactedMeta = prefixMeta
	r.vec.Meta = prefixMeta
	r.nextSeq = r.vec.Count(r.Owner)
	return true
}

// FinishSnapshot completes a chunked transfer by adopting the sender's
// exact vector once every chunk has been applied. It verifies the
// replica's integrated per-writer counts match the vector's — a
// mismatch means chunks are still missing (or the sender moved past the
// transfer) and the adoption is refused. After a successful finish the
// replica is byte-equivalent to the sender's snapshot: same vector
// (stamps, watermarks, metadata, error triple), same compaction base,
// same live log.
func (r *Replica) FinishSnapshot(vec *vv.Vector) bool {
	if vec == nil {
		return false
	}
	if vv.Compare(r.vec, vec) != vv.Equal {
		return false
	}
	gaugeBefore := r.vec.WindowStamps()
	r.vec = vec.Clone()
	r.nextSeq = r.vec.Count(r.Owner)
	r.met.windowStamps.Add(int64(r.vec.WindowStamps() - gaugeBefore))
	return true
}

// DropPendingFrom discards the buffered out-of-order updates of one
// writer — membership eviction: a confirmed-dead writer's gapped suffix
// would otherwise wait forever for a gap only the dead node could close.
// It returns how many updates were shed.
func (r *Replica) DropPendingFrom(w id.NodeID) int {
	p := r.pending[w]
	if len(p) == 0 {
		return 0
	}
	n := len(p)
	delete(r.pending, w)
	r.met.pending.Add(-int64(n))
	return n
}

// StableVector returns the vector whose per-writer counts this replica
// can never roll back below: the vector of its oldest live checkpoint, or
// the live vector when no checkpoint is live. Gossip advertises its counts
// (rather than the raw counts) as the compaction signal, so a peer's later
// rollback can never re-need an update another node has pruned. Like
// LiveVector it is the replica's own: read it in place, in the file's
// serialization domain, and never modify or keep it.
func (r *Replica) StableVector() *vv.Vector {
	if len(r.checkpoints) > 0 {
		return r.checkpoints[0].vec
	}
	return r.vec
}

// Store is a node's collection of replicas, one per shared file. The
// replica map is a sync.Map: the lookup hot path (Open/Peek on every
// write, apply, and digest) is a lock-free read that writes no shared
// cache line, so shard executors on different cores never serialize on —
// or bounce — a map lock just to reach their own files. Creation (first
// open of a file) takes the slow-path mutex; the replicas themselves
// carry no locks — all operations on one file are serialized by its
// shard.
type Store struct {
	owner    id.NodeID
	mu       sync.Mutex // serializes replica creation and metric/journal attach
	replicas sync.Map   // id.FileID → *Replica
	met      storeMetrics
	journal  Journal
}

// New returns an empty store for node owner.
func New(owner id.NodeID) *Store {
	return &Store{owner: owner}
}

// AttachMetrics wires the store (and every replica, current and future)
// to a registry, exporting log/checkpoint sizes and update flow. Call it
// before the node starts handling traffic.
func (s *Store) AttachMetrics(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = storeMetrics{
		replicas:     reg.Gauge("store.replicas"),
		logEntries:   reg.Gauge("store.log_entries"),
		checkpoints:  reg.Gauge("store.checkpoints"),
		pending:      reg.Gauge("store.pending_updates"),
		windowStamps: reg.Gauge("store.vv_window_stamps"),
		applied:      reg.Counter("store.updates_applied_total"),
		compacted:    reg.Counter("store.log_compacted_total"),
		invalidated:  reg.Counter("store.updates_invalidated_total"),
		rollbacks:    reg.Counter("store.rollbacks_total"),
		undone:       reg.Counter("store.undone_updates_total"),
	}
	s.replicas.Range(func(_, v any) bool {
		r := v.(*Replica)
		r.met = s.met
		s.met.replicas.Add(1)
		s.met.logEntries.Add(int64(len(r.log)))
		s.met.checkpoints.Add(int64(len(r.checkpoints)))
		s.met.pending.Add(int64(r.Pending()))
		s.met.windowStamps.Add(int64(r.vec.WindowStamps()))
		return true
	})
}

// SetJournal wires a durability journal to the store (and every replica,
// current and future): each applied update and each truncation of the
// applied log is reported to it synchronously from the mutating shard.
// Call it before the node starts handling traffic, after any recovery
// replay (replayed updates would otherwise be re-journaled).
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
	s.replicas.Range(func(_, v any) bool {
		v.(*Replica).journal = j
		return true
	})
}

// Open returns the replica of file, creating it on first access — the
// paper's "IDEA retrieves a copy of the file from the underlying
// replication-based system".
func (s *Store) Open(file id.FileID) *Replica {
	if v, ok := s.replicas.Load(file); ok {
		return v.(*Replica)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.replicas.Load(file); ok {
		return v.(*Replica)
	}
	r := NewReplica(file, s.owner)
	r.met = s.met
	r.journal = s.journal
	s.replicas.Store(file, r)
	s.met.replicas.Add(1)
	return r
}

// Peek returns the replica of file without creating one; nil when the
// node holds no replica.
func (s *Store) Peek(file id.FileID) *Replica {
	if v, ok := s.replicas.Load(file); ok {
		return v.(*Replica)
	}
	return nil
}

// Files returns the open file IDs in sorted order.
func (s *Store) Files() []id.FileID {
	return s.FilesFiltered(nil)
}

// FilesFiltered returns the open file IDs matching keep (nil keeps all)
// in sorted order. Filtering happens during the scan, so a caller owning
// 1/N of the files — a shard's gossip sweep — pays for sorting only its
// own subset rather than the node's whole file census. The enumeration
// is weakly consistent (files opened mid-scan may or may not appear),
// which is all cross-file operations need.
func (s *Store) FilesFiltered(keep func(id.FileID) bool) []id.FileID {
	var out []id.FileID
	s.replicas.Range(func(k, _ any) bool {
		f := k.(id.FileID)
		if keep == nil || keep(f) {
			out = append(out, f)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
