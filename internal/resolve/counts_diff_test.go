package resolve

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

// recEnv is an env that records what a handler sends and runs no timers,
// so a test can drive handlers one call at a time.
type recEnv struct {
	self id.NodeID
	sent []sentMsg
}

type sentMsg struct {
	to     id.NodeID
	msg    env.Message
	counts map[id.NodeID]int // the counts of msg's vector, once split off
}

func (e *recEnv) ID() id.NodeID                    { return e.self }
func (e *recEnv) Now() time.Time                   { return time.Unix(1000, 0) }
func (e *recEnv) Stamp() vv.Stamp                  { return vv.Stamp(e.Now().UnixNano()) }
func (e *recEnv) Send(to id.NodeID, m env.Message) { e.sent = append(e.sent, sentMsg{to: to, msg: m}) }
func (e *recEnv) After(time.Duration, string, any) {}
func (e *recEnv) Rand() *rand.Rand                 { return rand.New(rand.NewSource(1)) }
func (e *recEnv) Logf(string, ...any)              {}

// byCounts splits m into the message without its vector and the vector's
// per-writer counts: all a resolution receiver may read of it.
func byCounts(m env.Message) (env.Message, map[id.NodeID]int) {
	var v *vv.Vector
	switch mm := m.(type) {
	case wire.CollectRequest:
		v, mm.VV = mm.VV, nil
		m = mm
	case wire.CollectReply:
		v, mm.VV = mm.VV, nil
		m = mm
	case wire.Inform:
		v, mm.VV = mm.VV, nil
		m = mm
	}
	if v == nil {
		return m, nil
	}
	counts := make(map[id.NodeID]int, v.Len())
	for w, e := range v.Entries {
		counts[w] = e.Count
	}
	return m, counts
}

// countsWorld builds four replicas of board: a 150-update prefix by node 3
// that every replica holds (long enough that every window is compacted),
// compacted below 100 everywhere; node 4's updates also on node 2; then
// distinct concurrent writes on every node.
func countsWorld() map[id.NodeID]*store.Store {
	stores := make(map[id.NodeID]*store.Store)
	for nid := id.NodeID(1); nid <= 4; nid++ {
		stores[nid] = store.New(nid)
	}
	at := vv.Stamp(0)
	for i := 0; i < 150; i++ {
		at += 1e6
		u := stores[3].Open(board).WriteLocal(at, "common", nil, float64(i))
		for _, nid := range []id.NodeID{1, 2, 4} {
			stores[nid].Open(board).Apply(u)
		}
	}
	for _, st := range stores {
		st.Open(board).CompactBelow(map[id.NodeID]int{3: 100})
	}
	for nid := id.NodeID(1); nid <= 4; nid++ {
		for j := 0; j < int(nid); j++ {
			at += 1e6
			u := stores[nid].Open(board).WriteLocal(at, "w", nil, float64(10*int(nid)+j))
			if nid == 4 {
				stores[2].Open(board).Apply(u)
			}
		}
	}
	return stores
}

// transcript is everything one resolution did: each node's sends in order
// (vectors by counts) and each replica's final log and vector.
type transcript struct {
	sent map[id.NodeID][]sentMsg
	logs map[id.NodeID][]wire.Update
	vecs map[id.NodeID]*vv.Vector
}

// runCountsSession resolves countsWorld from initiator 2, every message
// handed over in place. With full set, every vector a handler receives is
// the sender's whole vector, stamp windows included — what resolution
// shipped before it sent counts.
func runCountsSession(t *testing.T, cfg Config, full bool) transcript {
	t.Helper()
	const initiator = id.NodeID(2)
	ids := []id.NodeID{1, 2, 3, 4}
	mem := overlay.NewStatic(ids, map[id.FileID][]id.NodeID{board: ids})
	stores := countsWorld()
	res := make(map[id.NodeID]*Resolver)
	envs := make(map[id.NodeID]*recEnv)
	for _, nid := range ids {
		res[nid] = New(cfg, nid, mem, stores[nid])
		envs[nid] = &recEnv{self: nid}
	}
	vecOf := func(nid id.NodeID) *vv.Vector {
		if full {
			return stores[nid].Open(board).Vector()
		}
		return stores[nid].Open(board).Counts()
	}
	ei := envs[initiator]
	res[initiator].RequestActive(ei, board)
	if full {
		for _, s := range res[initiator].sessions {
			s.vecs[initiator] = vecOf(initiator)
		}
	}
	for i := 0; i < len(ei.sent); i++ {
		to, msg := ei.sent[i].to, ei.sent[i].msg
		switch m := msg.(type) {
		case wire.CollectRequest:
			if full {
				m.VV = vecOf(initiator)
			}
			em := envs[to]
			n := len(em.sent)
			res[to].HandleCollectRequest(em, initiator, m)
			rep := em.sent[n].msg.(wire.CollectReply)
			if full {
				rep.VV = vecOf(to)
			}
			res[initiator].HandleCollectReply(ei, to, rep)
		case wire.Inform:
			// With full set the session derived the winner from whole
			// vectors, so m.VV is whole too.
			res[to].HandleInform(envs[to], initiator, m)
		}
	}
	if len(res[initiator].sessions) != 0 || res[initiator].Resolutions != 1 {
		t.Fatalf("session did not finish: %d open, %d resolutions", len(res[initiator].sessions), res[initiator].Resolutions)
	}
	tr := transcript{
		sent: make(map[id.NodeID][]sentMsg),
		logs: make(map[id.NodeID][]wire.Update),
		vecs: make(map[id.NodeID]*vv.Vector),
	}
	for _, nid := range ids {
		for _, s := range envs[nid].sent {
			msg, counts := byCounts(s.msg)
			tr.sent[nid] = append(tr.sent[nid], sentMsg{s.to, msg, counts})
		}
		rep := stores[nid].Open(board)
		tr.logs[nid] = rep.Log()
		tr.vecs[nid] = rep.Vector()
	}
	return tr
}

// TestReceiversReadCountsOnly: a resolution whose handlers receive whole
// vectors and one whose handlers receive counts send the same messages
// (vectors compared by counts) and leave every replica identical — log,
// counts and stamps — under every policy, sequential and parallel.
func TestReceiversReadCountsOnly(t *testing.T) {
	for _, policy := range []Policy{InvalidateBoth, HighestID, PriorityBased, MergeAll} {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/parallel=%v", policy, parallel), func(t *testing.T) {
				cfg := Config{
					Policy:          policy,
					Priorities:      map[id.NodeID]id.Priority{3: id.PrioritySupervisor},
					ParallelCollect: parallel,
				}
				whole, counts := runCountsSession(t, cfg, true), runCountsSession(t, cfg, false)
				if !reflect.DeepEqual(whole.sent, counts.sent) {
					t.Fatalf("sends differ:\nwhole  %+v\ncounts %+v", whole.sent, counts.sent)
				}
				if len(counts.sent[2]) < 2*3 || len(counts.sent[1]) == 0 {
					t.Fatalf("too little traffic to compare: %+v", counts.sent)
				}
				if !reflect.DeepEqual(whole.logs, counts.logs) {
					t.Fatalf("replica logs differ:\nwhole  %v\ncounts %v", whole.logs, counts.logs)
				}
				if !reflect.DeepEqual(whole.vecs, counts.vecs) {
					t.Fatalf("replica vectors differ:\nwhole  %v\ncounts %v", whole.vecs, counts.vecs)
				}
			})
		}
	}
}

// TestCollectRequestReadsCountsOnly: a member answers a whole initiator
// vector and its counts with the same reply.
func TestCollectRequestReadsCountsOnly(t *testing.T) {
	stores := countsWorld()
	ids := []id.NodeID{1, 2, 3, 4}
	mem := overlay.NewStatic(ids, map[id.FileID][]id.NodeID{board: ids})
	for _, initiator := range ids {
		whole := stores[initiator].Open(board).Vector()
		for _, member := range ids {
			r := New(Config{}, member, mem, stores[member])
			var replies [2]sentMsg
			for i, v := range []*vv.Vector{whole, whole.Counts()} {
				e := &recEnv{self: member}
				r.HandleCollectRequest(e, initiator, wire.CollectRequest{File: board, Token: 9, VV: v})
				if len(e.sent) != 1 {
					t.Fatalf("member %v sent %d messages", member, len(e.sent))
				}
				msg, counts := byCounts(e.sent[0].msg)
				replies[i] = sentMsg{e.sent[0].to, msg, counts}
			}
			if !reflect.DeepEqual(replies[0], replies[1]) {
				t.Fatalf("member %v to %v: whole %+v, counts %+v", member, initiator, replies[0], replies[1])
			}
		}
	}
}
