package main

import (
	"sync"
	"sync/atomic"

	"idea/internal/core"
	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/resolve"
	"idea/internal/vv"
)

// tracker turns the three public core.Node hooks into the benchmark's
// end-to-end samples. It is runtime-agnostic: every event carries its own
// timestamp in nanoseconds since the workload's epoch — wall time on the
// live workloads, virtual time on simnet.
//
//	verdict    write due → OnLevel verdict for that write's (file, token)
//	visibility write due → every pinned top-layer member's replica holds it
//	resolve    verdict below the hint on node N → next OnResolved(file) on N
//
// State is partitioned per file behind one mutex each: a file's events
// come from one executor per node, so the lock is only ever contended by
// the (at most three) nodes sharing the file.
type tracker struct {
	hint    float64
	fileIdx map[id.FileID]int
	files   []fileTrack

	// The scored window [from, to): an op is scored when it was due inside
	// it. Set once warm-up is over, while protocol callbacks of the warm-up
	// writes may still be running — hence atomic.
	from, to atomic.Int64

	// Table 2's split of completed resolution sessions, from OnOutcome.
	phaseMu            sync.Mutex
	phase1MS, phase2MS []float64
}

// attach installs the three public observation hooks on n — all an
// application would install — feeding the tracker; now reads the
// workload's clock.
func (t *tracker) attach(n *core.Node, now func() int64) {
	nid := n.ID()
	n.SetOnLevel(func(_ env.Env, file id.FileID, res detect.Result) {
		t.onLevel(nid, file, res.Token, res.Level, now())
	})
	n.SetOnResolved(func(_ env.Env, file id.FileID, _ id.NodeID) {
		t.onResolved(nid, file, n.Store().Open(file).Vector(), now())
	})
	n.SetOnOutcome(func(_ env.Env, o resolve.Outcome) {
		if o.Aborted {
			return
		}
		t.phaseMu.Lock()
		t.phase1MS = append(t.phase1MS, float64(o.Phase1)/1e6)
		t.phase2MS = append(t.phase2MS, float64(o.Phase2)/1e6)
		t.phaseMu.Unlock()
	})
}

// writeRec is one tracked write.
type writeRec struct {
	due       int64
	verdictAt int64        // 0 until the verdict arrived
	visibleAt int64        // 0 until the last top-layer member applied it
	remaining int          // top-layer members still lacking it
	done      chan<- int64 // closed-loop writer's wake-up (nil in open loop)
}

// writerLog holds one writer's tracked writes on one file; recs[i] is the
// write with sequence number base+i+1 (base = preloaded, untracked prefix).
type writerLog struct {
	base int
	recs []*writeRec
}

func (l *writerLog) at(seq int) *writeRec {
	if i := seq - l.base - 1; i >= 0 && i < len(l.recs) {
		return l.recs[i]
	}
	return nil
}

type waitKey struct {
	node  id.NodeID
	token int64
}

type fileTrack struct {
	mu      sync.Mutex
	file    id.FileID
	top     []id.NodeID
	writers map[id.NodeID]*writerLog
	// seen[n][w] is how many of writer w's updates node n's replica was
	// last observed to hold.
	seen map[id.NodeID]map[id.NodeID]int
	// waiting maps an issued detection to its write; early holds verdicts
	// that fired inside WriteTracked, before the token was known (a lone
	// writer's probe finalizes synchronously).
	waiting map[waitKey]*writeRec
	early   map[waitKey]int64
	calling map[id.NodeID]bool
	// lowAt[n] is when node n first saw a still-unresolved verdict below
	// the hint (0 = none outstanding).
	lowAt map[id.NodeID]int64

	verdicts, conflicts, reissued int
	verdictNS                     []sample
	visibleNS                     []sample
	resolveNS                     []sample
}

// sample is one scored latency with the instant it was due, so throughput
// over sub-windows (the decay ratio) can be derived from the same data.
type sample struct {
	due int64
	ns  int64
}

// newTracker pins the files, their top layers and the preloaded per-writer
// prefix (identical on every replica, never tracked).
func newTracker(files []id.FileID, top map[id.FileID][]id.NodeID, hint float64, preload map[id.NodeID]int) *tracker {
	t := &tracker{hint: hint, fileIdx: make(map[id.FileID]int), files: make([]fileTrack, len(files))}
	for i, f := range files {
		t.fileIdx[f] = i
		ft := &t.files[i]
		ft.file = f
		ft.top = top[f]
		ft.writers = make(map[id.NodeID]*writerLog)
		ft.seen = make(map[id.NodeID]map[id.NodeID]int)
		ft.waiting = make(map[waitKey]*writeRec)
		ft.early = make(map[waitKey]int64)
		ft.calling = make(map[id.NodeID]bool)
		ft.lowAt = make(map[id.NodeID]int64)
		for _, n := range ft.top {
			ft.writers[n] = &writerLog{base: preload[n]}
			ft.seen[n] = make(map[id.NodeID]int)
			for _, w := range ft.top {
				ft.seen[n][w] = preload[w]
			}
		}
	}
	return t
}

func (t *tracker) window(from, to int64) { t.from.Store(from); t.to.Store(to) }

func (t *tracker) scored(due int64) bool { return due >= t.from.Load() && due < t.to.Load() }

func (t *tracker) ft(file id.FileID) *fileTrack {
	i, ok := t.fileIdx[file]
	if !ok {
		return nil
	}
	return &t.files[i]
}

// beginWrite marks that node is inside WriteTracked for file, so a verdict
// for an unknown token on that node is this write's synchronous one.
func (t *tracker) beginWrite(node id.NodeID, file id.FileID) {
	ft := t.ft(file)
	ft.mu.Lock()
	ft.calling[node] = true
	ft.mu.Unlock()
}

// wrote registers the write WriteTracked just returned. now is the instant
// the call returned: the writer's own replica holds the update from then.
func (t *tracker) wrote(node id.NodeID, file id.FileID, seq int, token, due, now int64, done chan<- int64) {
	ft := t.ft(file)
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.calling[node] = false
	rec := &writeRec{due: due, remaining: len(ft.top) - 1, done: done}
	wl := ft.writers[node]
	if seq != wl.base+len(wl.recs)+1 {
		// The store reissued or skipped a sequence number (a §4.4.2
		// rollback undid local writes). The benchmark's workloads are
		// chosen so this never happens; count it as a failed check.
		ft.reissued++
	}
	wl.recs = append(wl.recs, rec)
	if ft.seen[node][node] < seq {
		ft.seen[node][node] = seq
	}
	if rec.remaining == 0 {
		t.visible(ft, rec, now)
	}
	key := waitKey{node, token}
	if at, ok := ft.early[key]; ok {
		delete(ft.early, key)
		t.verdict(ft, rec, at)
		return
	}
	ft.waiting[key] = rec
}

// onLevel consumes one OnLevel callback on node.
func (t *tracker) onLevel(node id.NodeID, file id.FileID, token int64, level float64, now int64) {
	ft := t.ft(file)
	if ft == nil {
		return
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.verdicts++
	if level < 1 {
		ft.conflicts++
	}
	if level < t.hint && ft.lowAt[node] == 0 {
		ft.lowAt[node] = now
	}
	key := waitKey{node, token}
	if rec, ok := ft.waiting[key]; ok {
		delete(ft.waiting, key)
		t.verdict(ft, rec, now)
	} else if ft.calling[node] {
		ft.early[key] = now
	}
	// Anything else is the verdict of a ReadChecked, which no write waits on.
}

func (t *tracker) verdict(ft *fileTrack, rec *writeRec, now int64) {
	rec.verdictAt = now
	if t.scored(rec.due) {
		ft.verdictNS = append(ft.verdictNS, sample{rec.due, now - rec.due})
	}
	if rec.done != nil {
		rec.done <- now
	}
}

func (t *tracker) visible(ft *fileTrack, rec *writeRec, now int64) {
	rec.visibleAt = now
	if t.scored(rec.due) {
		ft.visibleNS = append(ft.visibleNS, sample{rec.due, now - rec.due})
	}
}

// onResolved consumes one OnResolved callback on node: vec is the node's
// replica vector right after the adoption.
func (t *tracker) onResolved(node id.NodeID, file id.FileID, vec *vv.Vector, now int64) {
	ft := t.ft(file)
	if ft == nil {
		return
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if at := ft.lowAt[node]; at != 0 {
		ft.lowAt[node] = 0
		if t.scored(at) {
			ft.resolveNS = append(ft.resolveNS, sample{at, now - at})
		}
	}
	seen := ft.seen[node]
	if seen == nil {
		return // not a top-layer member of this file
	}
	for _, w := range ft.top {
		c := vec.Count(w)
		wl := ft.writers[w]
		for s := seen[w] + 1; s <= c; s++ {
			if rec := wl.at(s); rec != nil && rec.visibleAt == 0 {
				if rec.remaining--; rec.remaining == 0 {
					t.visible(ft, rec, now)
				}
			}
		}
		if c > seen[w] {
			seen[w] = c
		}
	}
}

// tally is the tracker's end-of-run summary.
type tally struct {
	verdictNS, visibleNS, resolveNS []sample
	phase1MS, phase2MS              []float64
	verdicts, conflicts             int
	// scoredWrites is how many writes were due in the scored window;
	// unacked of them never got a verdict, invisible never reached every
	// top-layer member, and failedWrites did one or the other.
	scoredWrites, unacked, invisible, failedWrites int
	// reissued counts writes whose sequence number was not the writer's
	// next one.
	reissued int
	// acked[file][writer] is the highest sequence number issued, for the
	// end-of-run presence check.
	acked map[id.FileID]map[id.NodeID]int
}

func (t *tracker) tally() tally {
	out := tally{acked: make(map[id.FileID]map[id.NodeID]int)}
	t.phaseMu.Lock()
	out.phase1MS, out.phase2MS = t.phase1MS, t.phase2MS
	t.phaseMu.Unlock()
	for i := range t.files {
		ft := &t.files[i]
		ft.mu.Lock()
		out.verdictNS = append(out.verdictNS, ft.verdictNS...)
		out.visibleNS = append(out.visibleNS, ft.visibleNS...)
		out.resolveNS = append(out.resolveNS, ft.resolveNS...)
		out.verdicts += ft.verdicts
		out.conflicts += ft.conflicts
		out.reissued += ft.reissued
		out.acked[ft.file] = make(map[id.NodeID]int)
		for w, wl := range ft.writers {
			out.acked[ft.file][w] = wl.base + len(wl.recs)
			for _, rec := range wl.recs {
				if !t.scored(rec.due) {
					continue
				}
				out.scoredWrites++
				if rec.verdictAt == 0 {
					out.unacked++
				}
				if rec.visibleAt == 0 {
					out.invisible++
				}
				if rec.verdictAt == 0 || rec.visibleAt == 0 {
					out.failedWrites++
				}
			}
		}
		ft.mu.Unlock()
	}
	return out
}

// pending reports how many tracked writes (scored or not) are not yet
// visible on every top-layer member — the quiesce loop's exit condition.
func (t *tracker) pending() int {
	n := 0
	for i := range t.files {
		ft := &t.files[i]
		ft.mu.Lock()
		for _, wl := range ft.writers {
			for _, rec := range wl.recs {
				if rec.visibleAt == 0 {
					n++
				}
			}
		}
		ft.mu.Unlock()
	}
	return n
}
