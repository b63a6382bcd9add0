package resolve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

// oraclePool is the session pool as this package built it before sessions
// read a phase-2 view: the initiator's whole live log at phase 2, then
// every accepted member reply in arrival order, keyed by Update.Key so a
// later copy replaces an earlier one. It survives only as the oracle the
// view-based image is checked against.
type oraclePool map[string]wire.Update

func (p oraclePool) add(us []wire.Update) {
	for _, u := range us {
		p[u.Key()] = u
	}
}

// image is the old imageUpdates: the pooled updates of the winning image
// the holder of target lacks (all of them for a nil target), sorted by
// (writer, seq).
func (p oraclePool) image(winVec, target *vv.Vector) []wire.Update {
	var out []wire.Update
	for _, u := range p {
		if u.Seq <= winVec.Count(u.Writer) && (target == nil || u.Seq > target.Count(u.Writer)) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Writer != out[j].Writer {
			return out[i].Writer < out[j].Writer
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// TestImageMatchesOracleRandomized: over random replicas (several
// writers, compacted prefixes), random member replies — including copies
// of (writer, seq) pairs the initiator already holds, which must win over
// the local copy — and random winning and target vectors, the view-based
// image ships exactly what the old pool did, in the same order.
func TestImageMatchesOracleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 500; iter++ {
		writers := 1 + rng.Intn(4)
		rep := store.NewReplica(board, 1)
		counts := make(map[id.NodeID]int)
		for i, n := 0, rng.Intn(60); i < n; i++ {
			w := id.NodeID(1 + rng.Intn(writers))
			counts[w]++
			rep.Apply(wire.Update{File: board, Writer: w, Seq: counts[w], At: vv.Stamp(i+1) * 1e6, Op: "local"})
		}
		if rng.Intn(2) == 0 {
			frontier := make(map[id.NodeID]int)
			for w, c := range counts {
				frontier[w] = rng.Intn(c + 1)
			}
			rep.CompactBelow(frontier)
		}
		s := &session{view: rep.View(), pool: make(map[wire.UpdateID]wire.Update)}
		oracle := oraclePool{}
		oracle.add(rep.Log())
		for m, n := 0, rng.Intn(4); m < n; m++ {
			var reply []wire.Update
			for k, nk := 0, rng.Intn(10); k < nk; k++ {
				w := id.NodeID(1 + rng.Intn(writers+1))
				reply = append(reply, wire.Update{File: board, Writer: w, Seq: 1 + rng.Intn(counts[w]+5), Op: fmt.Sprintf("member%d", m)})
			}
			s.collect(reply)
			oracle.add(reply)
		}
		randVec := func() *vv.Vector {
			v := vv.New()
			for w := id.NodeID(1); w <= id.NodeID(writers+1); w++ {
				if c := rng.Intn(counts[w] + 6); c > 0 {
					v.SetEntry(w, vv.Entry{Count: c})
				}
			}
			return v
		}
		win := randVec()
		img := newImage(s, win)
		for _, target := range []*vv.Vector{nil, randVec(), randVec(), vv.New()} {
			got, want := img.missingFrom(target), oracle.image(win, target)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d: image for target %v under %v:\n got %v\nwant %v", iter, target, win, got, want)
			}
		}
	}
}

// shadow pairs a live session with the oracle pool built from the same
// inputs.
type shadow struct {
	s    *session
	pool oraclePool
}

// sentInform is one Inform the watched resolver handed to its env.
type sentInform struct {
	to id.NodeID
	m  wire.Inform
}

// informSpy records every Inform sent through it.
type informSpy struct {
	env.Env
	sent *[]sentInform
}

func (e informSpy) Send(to id.NodeID, msg env.Message) {
	if m, ok := msg.(wire.Inform); ok {
		*e.sent = append(*e.sent, sentInform{to, m})
	}
	e.Env.Send(to, msg)
}

// poolWatch wraps every delivery to one initiator. It seeds an oracle pool
// with a copy of the log as it stood when a session entered phase 2,
// feeds it the member replies the session accepted, and checks every
// Inform payload — and the initiator's own adoption — against it.
type poolWatch struct {
	t       *testing.T
	rn      *resNode
	self    id.NodeID
	shadows map[int64]*shadow

	informs    int // Inform payloads checked
	nilTargets int // of which to a member that timed out
	adoptions  int // local adoptions checked
}

func (w *poolWatch) around(e env.Env, from id.NodeID, msg env.Message, deliver func(env.Env)) {
	res := w.rn.res
	// Phase 2 starts inside an event that has not touched the replica
	// yet, so the log before the event is the log the session saw.
	logBefore := append([]wire.Update(nil), w.rn.st.Open(board).Log()...)
	var replyTo *session
	reply, isReply := msg.(wire.CollectReply)
	if s := res.sessions[reply.Token]; isReply && s != nil && s.inPhase2 {
		if _, had := s.vecs[from]; !had {
			replyTo = s
		}
	}
	var sent []sentInform
	deliver(informSpy{e, &sent})

	for _, s := range res.sessions {
		if s.inPhase2 && w.shadows[s.token] == nil {
			sh := &shadow{s: s, pool: oraclePool{}}
			sh.pool.add(logBefore)
			w.shadows[s.token] = sh
		}
	}
	if replyTo != nil {
		if _, accepted := replyTo.vecs[from]; accepted {
			w.shadows[replyTo.token].pool.add(reply.Updates)
		}
	}
	var last *sentInform
	for i := range sent {
		si := &sent[i]
		sh := w.shadows[si.m.Token]
		if sh == nil {
			w.t.Fatalf("inform for unwatched session %d", si.m.Token)
		}
		target := sh.s.vecs[si.to]
		if want := sh.pool.image(si.m.VV, target); !reflect.DeepEqual(si.m.Updates, want) {
			w.t.Fatalf("inform to %v:\n got %v\nwant %v", si.to, si.m.Updates, want)
		}
		w.informs++
		if target == nil {
			w.nilTargets++
		}
		last = si
	}
	if last != nil {
		// The session has finished; everything it adopted from is
		// immutable, so recomputing the local image is what finish used.
		sh := w.shadows[last.m.Token]
		got := newImage(sh.s, last.m.VV).missingFrom(sh.s.vecs[w.self])
		if want := sh.pool.image(last.m.VV, sh.s.vecs[w.self]); !reflect.DeepEqual(got, want) {
			w.t.Fatalf("local adoption:\n got %v\nwant %v", got, want)
		}
		w.adoptions++
	}
}

// TestPoolMatchesOracle runs active resolutions on a four-node top layer
// and checks every Inform and the initiator's adoption against the old
// pool, across all policies, sequential and parallel collect, a member
// timing out, a compacted prefix (one member never received it), and a
// rollback or an invalidating Inform landing on the initiator between
// phase 2 and finish — the cases where the live log and the session's
// view part ways.
func TestPoolMatchesOracle(t *testing.T) {
	for _, policy := range []Policy{InvalidateBoth, HighestID, PriorityBased, MergeAll} {
		for _, parallel := range []bool{false, true} {
			for _, timeout := range []bool{false, true} {
				for _, compact := range []bool{false, true} {
					for _, midway := range []string{"none", "rollback", "inform"} {
						name := fmt.Sprintf("%v/parallel=%v/timeout=%v/compact=%v/midway=%s", policy, parallel, timeout, compact, midway)
						t.Run(name, func(t *testing.T) {
							checkPoolCase(t, policy, parallel, timeout, compact, midway)
						})
					}
				}
			}
		}
	}
}

func checkPoolCase(t *testing.T, policy Policy, parallel, timeout, compact bool, midway string) {
	const initiator, unreachable = id.NodeID(2), id.NodeID(3)
	f := build(t, 4, Config{
		Policy:          policy,
		Priorities:      map[id.NodeID]id.Priority{1: id.PrioritySupervisor},
		ParallelCollect: parallel,
	}, 61)
	w := &poolWatch{t: t, rn: f.nodes[initiator], self: initiator, shadows: make(map[int64]*shadow)}
	f.nodes[initiator].around = w.around
	rep := f.nodes[initiator].st.Open(board)
	at := func(d time.Duration, fn func(env.Env)) {
		f.c.CallAt(d, initiator, func(e env.Env) { w.around(e, id.Nil, nil, fn) })
	}

	// Node 3's first two updates are on every replica: a common prefix,
	// which is all invalidate-both ever ships (and only to a member that
	// timed out).
	f.c.CallAt(300*time.Millisecond, 3, func(e env.Env) {
		for i := 0; i < 2; i++ {
			u := f.nodes[3].st.Open(board).WriteLocal(e.Stamp(), "common", nil, 0)
			for _, nid := range []id.NodeID{1, 2, 4} {
				f.nodes[nid].st.Open(board).Apply(u)
			}
		}
	})
	if compact {
		// Node 1's first five updates reach every node but node 4, and
		// the first three are compacted away there.
		f.c.CallAt(500*time.Millisecond, 1, func(e env.Env) {
			for i := 0; i < 5; i++ {
				u := f.nodes[1].st.Open(board).WriteLocal(e.Stamp(), "prefix", nil, 0)
				f.nodes[2].st.Open(board).Apply(u)
				f.nodes[3].st.Open(board).Apply(u)
			}
			for _, nid := range []id.NodeID{1, 2, 3} {
				if n := f.nodes[nid].st.Open(board).CompactBelow(map[id.NodeID]int{1: 3, 3: 2}); n == 0 {
					t.Fatalf("node %v compacted nothing", nid)
				}
			}
		})
	}
	at(900*time.Millisecond, func(env.Env) { rep.Checkpoint(77) })
	// The initiator also holds what the highest-ID and the priority winner
	// wrote in the conflict, so their images ship partly from its view.
	f.c.CallAt(1500*time.Millisecond, initiator, func(env.Env) {
		for _, nid := range []id.NodeID{1, 4} {
			rep.ApplyAll(f.nodes[nid].st.Open(board).Log())
		}
	})
	f.conflict(t)
	at(2600*time.Millisecond, func(e env.Env) {
		for i := 0; i < 3; i++ {
			rep.WriteLocal(e.Stamp(), "late", nil, 0)
		}
	})
	if timeout {
		f.c.Partition(initiator, unreachable)
	}
	at(3*time.Second, func(e env.Env) { f.nodes[initiator].res.RequestActive(e, board) })
	// Midway, the initiator's live log loses what its view still holds.
	at(3050*time.Millisecond, func(e env.Env) {
		before := rep.Len()
		switch midway {
		case "rollback":
			if _, err := rep.Rollback(77); err != nil {
				t.Fatal(err)
			}
		case "inform":
			f.nodes[initiator].res.HandleInform(e, 1, wire.Inform{File: board, Token: 1 << 40, Winner: 1, VV: vv.New()})
			if policy == MergeAll {
				return // merge-all never invalidates
			}
		default:
			return
		}
		if rep.Len() >= before {
			t.Fatalf("midway %s removed nothing", midway)
		}
	})
	f.c.RunFor(10 * time.Second)

	if len(w.shadows) != 1 || w.informs != 3 || w.adoptions != 1 {
		t.Fatalf("checked %d sessions, %d informs, %d adoptions; want 1, 3, 1", len(w.shadows), w.informs, w.adoptions)
	}
	if timeout && w.nilTargets == 0 {
		t.Fatal("no inform went to a timed-out member")
	}
	if out := f.nodes[initiator].outcomes; len(out) != 1 || out[0].Aborted {
		t.Fatalf("outcomes = %+v", out)
	}
}
