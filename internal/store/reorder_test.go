package store

import (
	"math/rand"
	"testing"

	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Regression tests for the out-of-order-delivery desync: Apply used to
// tick the vector unconditionally, so a gapped arrival (writer seq
// {1,2,5}) produced Count=3 while seq 3–4 were missing. MissingFrom's
// `u.Seq > remote.Count(u.Writer)` test then re-shipped updates forever
// and Compare returned spurious Less/Concurrent verdicts.

func upd(w id.NodeID, seq int) wire.Update {
	return wire.Update{File: fBoard, Writer: w, Seq: seq, At: vv.Stamp(seq) * 1e9, Meta: float64(seq)}
}

func TestApplyGapBuffersUntilContiguous(t *testing.T) {
	r := NewReplica(fBoard, nA)
	if !r.Apply(upd(nB, 1)) || !r.Apply(upd(nB, 2)) {
		t.Fatal("contiguous prefix rejected")
	}
	if !r.Apply(upd(nB, 5)) {
		t.Fatal("gapped update not accepted for buffering")
	}
	// The gap must not be visible in the vector or the log.
	if got := r.Vector().Count(nB); got != 2 {
		t.Fatalf("Count = %d after gapped apply, want 2", got)
	}
	if r.Len() != 2 || r.Pending() != 1 {
		t.Fatalf("len=%d pending=%d, want 2/1", r.Len(), r.Pending())
	}
	// Duplicate of the buffered update is still a duplicate.
	if r.Apply(upd(nB, 5)) {
		t.Fatal("buffered duplicate accepted")
	}
	// Closing the gap applies everything in sequence order.
	if !r.Apply(upd(nB, 4)) || !r.Apply(upd(nB, 3)) {
		t.Fatal("gap fillers rejected")
	}
	if got := r.Vector().Count(nB); got != 5 {
		t.Fatalf("Count = %d after gap closed, want 5", got)
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", r.Pending())
	}
	log := r.Log()
	for i, u := range log {
		if u.Seq != i+1 {
			t.Fatalf("log not in sequence order: %v", log)
		}
	}
	if err := r.Vector().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGappedDeliveryNoSpuriousCompare(t *testing.T) {
	// Replica a holds writer B's seq {1,2}; replica c holds {1,2} plus a
	// buffered 5. Their vectors must compare Equal — under the old code c
	// counted the held update and reported Greater (and, with another
	// writer in play, Concurrent).
	a := NewReplica(fBoard, nA)
	c := NewReplica(fBoard, id.NodeID(3))
	for _, rep := range []*Replica{a, c} {
		rep.Apply(upd(nB, 1))
		rep.Apply(upd(nB, 2))
	}
	c.Apply(upd(nB, 5))
	if got := vv.Compare(a.Vector(), c.Vector()); got != vv.Equal {
		t.Fatalf("Compare = %v with update 5 held, want equal", got)
	}
}

func TestDroppedFrameReshippedOnce(t *testing.T) {
	// Writer b issues 5 updates; frame 3 is dropped on the way to a.
	b := NewReplica(fBoard, nB)
	var frames []wire.Update
	for i := 0; i < 5; i++ {
		frames = append(frames, b.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, float64(i)))
	}
	a := NewReplica(fBoard, nA)
	for i, u := range frames {
		if i == 2 {
			continue // dropped
		}
		a.Apply(u)
	}
	if got := a.Vector().Count(nB); got != 2 {
		t.Fatalf("Count = %d with frame 3 dropped, want 2", got)
	}
	// Anti-entropy: b ships exactly the suffix a's vector admits to
	// missing — seqs 3..5 — and convergence completes in one exchange.
	missing := b.MissingFrom(a.Vector())
	if len(missing) != 3 || missing[0].Seq != 3 {
		t.Fatalf("missing = %v, want seqs 3..5", missing)
	}
	a.ApplyAll(missing)
	if vv.Compare(a.Vector(), b.Vector()) != vv.Equal {
		t.Fatalf("not converged: %v vs %v", a.Vector(), b.Vector())
	}
	// And nothing left to ship: the forever-re-ship loop is gone.
	if left := b.MissingFrom(a.Vector()); len(left) != 0 {
		t.Fatalf("still re-shipping %v after convergence", left)
	}
	if a.Pending() != 0 {
		t.Fatalf("pending = %d after convergence", a.Pending())
	}
}

func TestReorderedFramesConverge(t *testing.T) {
	// Fuzz-ish regression: two writers' frames delivered in random order
	// (worst-case reordering) still converge to the writers' state.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := NewReplica(fBoard, nB)
		c := NewReplica(fBoard, id.NodeID(3))
		var frames []wire.Update
		for i := 0; i < 10; i++ {
			frames = append(frames, b.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0))
			frames = append(frames, c.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0))
		}
		rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
		a := NewReplica(fBoard, nA)
		for _, u := range frames {
			a.Apply(u)
		}
		if got := a.Vector().Count(nB); got != 10 {
			t.Fatalf("trial %d: Count(b) = %d, want 10", trial, got)
		}
		if got := a.Vector().Count(c.Owner); got != 10 {
			t.Fatalf("trial %d: Count(c) = %d, want 10", trial, got)
		}
		if a.Pending() != 0 || a.Len() != 20 {
			t.Fatalf("trial %d: pending=%d len=%d", trial, a.Pending(), a.Len())
		}
		if err := a.Vector().Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Per-writer log order is sequence order despite arrival chaos.
		seen := map[id.NodeID]int{}
		for _, u := range a.Log() {
			if u.Seq != seen[u.Writer]+1 {
				t.Fatalf("trial %d: writer %v applied %d after %d", trial, u.Writer, u.Seq, seen[u.Writer])
			}
			seen[u.Writer] = u.Seq
		}
	}
}

func TestCompactBelowPrunesAndStaysServable(t *testing.T) {
	b := NewReplica(fBoard, nB)
	var frames []wire.Update
	for i := 0; i < 100; i++ {
		frames = append(frames, b.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0))
	}
	a := NewReplica(fBoard, nA)
	a.ApplyAll(frames)
	pruned := a.CompactBelow(map[id.NodeID]int{nB: 90})
	if pruned != 90 || a.Compacted() != 90 {
		t.Fatalf("pruned = %d (compacted %d), want 90", pruned, a.Compacted())
	}
	if a.Len() != 100 || len(a.Log()) != 10 {
		t.Fatalf("len=%d live=%d, want 100/10", a.Len(), len(a.Log()))
	}
	// A peer at the frontier still gets exactly its missing suffix.
	remote := vv.New()
	for i := 0; i < 95; i++ {
		remote.Tick(nB, vv.Stamp(i+1)*1e9, 0)
	}
	missing := a.MissingFrom(remote)
	if len(missing) != 5 || missing[0].Seq != 96 {
		t.Fatalf("missing after compaction = %v, want seqs 96..100", missing)
	}
	// Idempotent: nothing below the frontier remains.
	if again := a.CompactBelow(map[id.NodeID]int{nB: 90}); again != 0 {
		t.Fatalf("second compaction pruned %d", again)
	}
}

func TestCompactBelowRespectsCheckpoints(t *testing.T) {
	r := NewReplica(fBoard, nA)
	for i := 0; i < 10; i++ {
		r.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, float64(i))
	}
	r.Checkpoint(1) // at absolute length 10
	for i := 10; i < 20; i++ {
		r.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, float64(i))
	}
	// Frontier says everything is stable, but the checkpoint pins the
	// prefix at 10 so rollback stays exact.
	if pruned := r.CompactBelow(map[id.NodeID]int{nA: 20}); pruned != 10 {
		t.Fatalf("pruned = %d, want 10 (checkpoint floor)", pruned)
	}
	undone, err := r.Rollback(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(undone) != 10 || r.Vector().Count(nA) != 10 {
		t.Fatalf("rollback after compaction: undone=%d count=%d", len(undone), r.Vector().Count(nA))
	}
	// The writer continues gap-free.
	if u := r.WriteLocal(vv.Stamp(21)*1e9, "w", nil, 0); u.Seq != 11 {
		t.Fatalf("post-rollback seq = %d, want 11", u.Seq)
	}
}

func TestCheckpointPruning(t *testing.T) {
	r := NewReplica(fBoard, nA)
	r.SetMaxCheckpoints(3)
	for i := 0; i < 10; i++ {
		r.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0)
		r.Checkpoint(int64(i))
	}
	if got := r.Checkpoints(); got != 3 {
		t.Fatalf("checkpoints = %d, want 3", got)
	}
	if _, err := r.Rollback(0); err == nil {
		t.Fatal("pruned checkpoint still rollback-able")
	}
	if _, err := r.Rollback(9); err != nil {
		t.Fatal(err)
	}
}

func TestStableVectorIsRollbackFloor(t *testing.T) {
	r := NewReplica(fBoard, nA)
	for i := 0; i < 10; i++ {
		r.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0)
	}
	if got := r.StableVector().Count(nA); got != 10 {
		t.Fatalf("no-checkpoint stable = %d, want 10", got)
	}
	r.Checkpoint(1) // floor pinned at 10
	for i := 10; i < 20; i++ {
		r.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0)
	}
	r.Checkpoint(2)
	if got := r.StableVector().Count(nA); got != 10 {
		t.Fatalf("stable with live checkpoints = %d, want oldest floor 10", got)
	}
	r.DropCheckpoint(1)
	if got := r.StableVector().Count(nA); got != 20 {
		t.Fatalf("stable after dropping oldest = %d, want 20", got)
	}
}

func TestAdoptImageClampedAtCompactionBase(t *testing.T) {
	// A resolution image claiming fewer updates than the compaction
	// frontier must not invalidate below it: the compacted prefix is
	// stable everywhere, and cutting the vector under wBase would corrupt
	// the per-writer index invariant (spurious re-ships forever).
	b := NewReplica(fBoard, nB)
	var frames []wire.Update
	for i := 0; i < 20; i++ {
		frames = append(frames, b.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0))
	}
	a := NewReplica(fBoard, nA)
	a.ApplyAll(frames)
	a.CompactBelow(map[id.NodeID]int{nB: 10})

	adopt := vv.New()
	for i := 0; i < 5; i++ { // pathological: below the frontier
		adopt.Tick(nB, vv.Stamp(i+1)*1e9, 0)
	}
	_, invalidated := a.AdoptImage(adopt, nil, true)
	if invalidated != 10 {
		t.Fatalf("invalidated = %d, want the 10 live entries only", invalidated)
	}
	if got := a.Vector().Count(nB); got != 10 {
		t.Fatalf("count = %d, want clamped to frontier 10", got)
	}
	// The index invariant holds: nothing spurious to ship to a peer at
	// the same state.
	peer := vv.New()
	for i := 0; i < 10; i++ {
		peer.Tick(nB, vv.Stamp(i+1)*1e9, 0)
	}
	if got := a.MissingFrom(peer); len(got) != 0 {
		t.Fatalf("spurious re-ship after clamped invalidation: %v", got)
	}
	if err := a.Vector().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackAfterInvalidationNeverAdvertisesUnshippable(t *testing.T) {
	// Checkpoint at count 10, then an adopted image invalidates down to
	// 7. Rolling back to the checkpoint cannot resurrect updates 8..10
	// (they are gone from the log), so the restored vector must be
	// truncated to what the index can actually ship — otherwise digests
	// advertise phantom counts and anti-entropy never converges.
	b := NewReplica(fBoard, nB)
	var frames []wire.Update
	for i := 0; i < 10; i++ {
		frames = append(frames, b.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0))
	}
	a := NewReplica(fBoard, nA)
	a.ApplyAll(frames)
	a.Checkpoint(1) // at count 10
	adopt := vv.New()
	for i := 0; i < 7; i++ {
		adopt.Tick(nB, vv.Stamp(i+1)*1e9, 0)
	}
	if _, invalidated := a.AdoptImage(adopt, nil, true); invalidated != 3 {
		t.Fatalf("invalidated = %d, want 3", invalidated)
	}
	if _, err := a.Rollback(1); err != nil {
		t.Fatal(err)
	}
	if got := a.Vector().Count(nB); got != 7 {
		t.Fatalf("post-rollback count = %d, want 7 (shippable)", got)
	}
	if err := a.Vector().Validate(); err != nil {
		t.Fatal(err)
	}
	// The advertised count and the shippable suffix agree: an empty
	// remote receives exactly what the vector claims.
	if got := a.MissingFrom(vv.New()); len(got) != 7 {
		t.Fatalf("shippable = %d updates, vector says 7", len(got))
	}
}

func TestMissingFromSkipsRemoteBehindFrontier(t *testing.T) {
	// A remote missing part of the compacted prefix cannot apply our live
	// suffix (the gap is un-closable from here), so nothing is shipped —
	// not an endless futile re-ship of the suffix.
	b := NewReplica(fBoard, nB)
	var frames []wire.Update
	for i := 0; i < 20; i++ {
		frames = append(frames, b.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0))
	}
	a := NewReplica(fBoard, nA)
	a.ApplyAll(frames)
	a.CompactBelow(map[id.NodeID]int{nB: 15})
	fresh := vv.New() // a node born after pruning
	if got := a.MissingFrom(fresh); len(got) != 0 {
		t.Fatalf("shipped %d un-appliable updates to a pre-frontier remote", len(got))
	}
	// A remote at (or past) the frontier still gets its exact suffix.
	at := vv.New()
	for i := 0; i < 15; i++ {
		at.Tick(nB, vv.Stamp(i+1)*1e9, 0)
	}
	if got := a.MissingFrom(at); len(got) != 5 || got[0].Seq != 16 {
		t.Fatalf("frontier remote got %v, want seqs 16..20", got)
	}
}

func TestWriteLocalResyncsAfterOwnUpdatesReshipped(t *testing.T) {
	// After a rollback, a peer can re-ship the owner's own undone writes;
	// once they are applied through Apply/drain, the next local write
	// must continue past them, never reissue a used sequence number.
	rr := NewReplica(fBoard, nA)
	var own []wire.Update
	own = append(own, rr.WriteLocal(vv.Stamp(1)*1e9, "w", nil, 0))
	rr.Checkpoint(7)
	own = append(own, rr.WriteLocal(vv.Stamp(2)*1e9, "w", nil, 0))
	own = append(own, rr.WriteLocal(vv.Stamp(3)*1e9, "w", nil, 0))
	if _, err := rr.Rollback(7); err != nil {
		t.Fatal(err)
	}
	// Peer re-ships the undone own writes, out of order.
	rr.Apply(own[2]) // seq 3: buffered
	rr.Apply(own[1]) // seq 2: applies, drains 3
	if got := rr.Vector().Count(nA); got != 3 {
		t.Fatalf("count = %d after re-ship, want 3", got)
	}
	u := rr.WriteLocal(vv.Stamp(4)*1e9, "w", nil, 0)
	if u.Seq != 4 {
		t.Fatalf("next local write seq = %d, want 4 (no reissue)", u.Seq)
	}
	if err := rr.Vector().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackPerWriterAfterMidLogInvalidation(t *testing.T) {
	// Invalidation can remove mid-log (pre-checkpoint) entries of one
	// writer; a later rollback must still undo the other writer's
	// post-checkpoint updates (per-writer boundaries, not a length cut).
	wX, wY := nB, id.NodeID(3)
	r := NewReplica(fBoard, nA)
	for s := 1; s <= 3; s++ {
		r.Apply(wire.Update{File: fBoard, Writer: wX, Seq: s, At: vv.Stamp(s) * 1e9})
	}
	for s := 1; s <= 3; s++ {
		r.Apply(wire.Update{File: fBoard, Writer: wY, Seq: s, At: vv.Stamp(3+s) * 1e9})
	}
	r.Checkpoint(1) // X:3 Y:3
	r.Apply(wire.Update{File: fBoard, Writer: wY, Seq: 4, At: vv.Stamp(8) * 1e9})
	// A resolution image keeps X only through 1 (Y untouched at 4).
	adopt := vv.New()
	adopt.Tick(wX, vv.Stamp(1)*1e9, 0)
	for s := 1; s <= 4; s++ {
		adopt.Tick(wY, vv.Stamp(3+s)*1e9, 0)
	}
	if _, inv := r.AdoptImage(adopt, nil, true); inv != 2 {
		t.Fatalf("invalidated = %d, want X2,X3", inv)
	}
	undone, err := r.Rollback(1)
	if err != nil {
		t.Fatal(err)
	}
	// Y4 is post-checkpoint and must be undone; X stays at its clamped 1.
	if len(undone) != 1 || undone[0].Writer != wY || undone[0].Seq != 4 {
		t.Fatalf("undone = %v, want exactly Y4", undone)
	}
	if got := r.Vector().Count(wY); got != 3 {
		t.Fatalf("Count(Y) = %d, want 3", got)
	}
	// Index and vector agree for every writer.
	for _, w := range []id.NodeID{wX, wY} {
		if r.Vector().Count(w) != len(r.MissingFrom(vv.New())) {
			break // only a coarse cross-check below
		}
	}
	if tot := r.Vector().TotalCount(); tot != r.Len() {
		t.Fatalf("vector total %d != log len %d", tot, r.Len())
	}
	// A re-shipped Y4 applies exactly once.
	if !r.Apply(wire.Update{File: fBoard, Writer: wY, Seq: 4, At: vv.Stamp(8) * 1e9}) {
		t.Fatal("re-shipped Y4 rejected")
	}
	if r.Apply(wire.Update{File: fBoard, Writer: wY, Seq: 4, At: vv.Stamp(8) * 1e9}) {
		t.Fatal("Y4 applied twice")
	}
}

func TestInvalidationTruncatesCheckpointFloors(t *testing.T) {
	// The gossiped rollback floor (StableVector) reads the oldest live
	// checkpoint; after an invalidation shrinks the replica, a stale
	// floor above the real counts would let compaction outrun lagging
	// peers.
	r := NewReplica(fBoard, nA)
	var frames []wire.Update
	b := NewReplica(fBoard, nB)
	for i := 0; i < 10; i++ {
		frames = append(frames, b.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, 0))
	}
	r.ApplyAll(frames)
	r.Checkpoint(1) // floor B:10
	adopt := vv.New()
	for i := 0; i < 5; i++ {
		adopt.Tick(nB, vv.Stamp(i+1)*1e9, 0)
	}
	r.AdoptImage(adopt, nil, true)
	if got := r.StableVector().Count(nB); got != 5 {
		t.Fatalf("rollback floor = %d after invalidation to 5, want 5", got)
	}
}

func TestInvalidationKeepsCompactedMeta(t *testing.T) {
	b := NewReplica(fBoard, nB)
	var frames []wire.Update
	for i := 0; i < 10; i++ {
		frames = append(frames, b.WriteLocal(vv.Stamp(i+1)*1e9, "w", nil, float64(i+1)))
	}
	a := NewReplica(fBoard, nA)
	a.ApplyAll(frames)
	a.CompactBelow(map[id.NodeID]int{nB: 8}) // compacted meta = 8
	adopt := vv.New()
	for i := 0; i < 8; i++ {
		adopt.Tick(nB, vv.Stamp(i+1)*1e9, float64(i+1))
	}
	a.AdoptImage(adopt, nil, true) // empties the live log
	if got := a.Meta(); got != 8 {
		t.Fatalf("Meta = %g after live log emptied, want compacted 8", got)
	}
}

func TestInvalidationClearsStalePending(t *testing.T) {
	// A buffered out-of-order extra beyond the adopted image must be
	// dropped: its sequence number will be reissued by the writer.
	winner := NewReplica(fBoard, nB)
	wu := winner.WriteLocal(1e9, "w", nil, 5)
	loser := NewReplica(fBoard, nA)
	loser.WriteLocal(1e9, "w", nil, 3)
	loser.Apply(upd(nA, 3)) // gapped: buffered, not applied
	if loser.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", loser.Pending())
	}
	applied, invalidated := loser.AdoptImage(winner.Vector(), []wire.Update{wu}, true)
	if applied != 1 || invalidated != 1 {
		t.Fatalf("applied=%d invalidated=%d", applied, invalidated)
	}
	if loser.Pending() != 0 {
		t.Fatalf("stale pending survived invalidation: %d", loser.Pending())
	}
	if u := loser.WriteLocal(2e9, "w", nil, 1); u.Seq != 1 {
		t.Fatalf("seq after invalidation = %d, want 1", u.Seq)
	}
}
