// Package baseline implements the two conventional consistency controls
// IDEA is positioned between in Fig. 2:
//
//   - Optimistic consistency (Bayou/Coda-style [8, 24]): writes commit
//     locally and replicas converge lazily through periodic anti-entropy
//     with random peers. Cheapest, but conflicts surface late.
//   - Strong consistency (primary-copy locking [1, 23]): every write is
//     forwarded to a primary that orders it and synchronously replicates
//     it to every replica before acknowledging. No inconsistency ever,
//     at the highest messaging and latency cost.
//
// Both run on the same env/store substrates as IDEA, so the Fig. 2
// trade-off bench compares like with like: identical workload, network,
// and accounting.
package baseline

import (
	"slices"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/store"
	"idea/internal/vv"
	"idea/internal/wire"
)

// ---- Optimistic ----

// OptimisticConfig tunes the anti-entropy schedule.
type OptimisticConfig struct {
	// Interval between anti-entropy exchanges; zero means 30 s.
	Interval time.Duration
}

// ConflictNotice reports the first time a node observed a conflict for a
// file during anti-entropy — the optimistic analogue of detection.
type ConflictNotice struct {
	File  id.FileID
	Peer  id.NodeID
	Since time.Duration // age of the oldest conflicting foreign update
}

const timerAntiEntropy = "base.antientropy"

// Optimistic is one node of the optimistic baseline.
type Optimistic struct {
	cfg   OptimisticConfig
	self  id.NodeID
	peers []id.NodeID
	st    *store.Store

	// OnConflict fires when an exchange reveals concurrent vectors.
	OnConflict func(e env.Env, n ConflictNotice)

	// Exchanges counts completed anti-entropy pulls.
	Exchanges int
	// Conflicts counts conflict notices.
	Conflicts int
}

// NewOptimistic creates an optimistic-baseline node.
func NewOptimistic(cfg OptimisticConfig, self id.NodeID, peers []id.NodeID) *Optimistic {
	if cfg.Interval == 0 {
		cfg.Interval = 30 * time.Second
	}
	return &Optimistic{cfg: cfg, self: self, peers: peers, st: store.New(self)}
}

// Store exposes the node's replica store.
func (o *Optimistic) Store() *store.Store { return o.st }

// Write commits locally — optimistic writes never block.
func (o *Optimistic) Write(e env.Env, file id.FileID, op string, data []byte, meta float64) wire.Update {
	return o.st.Open(file).WriteLocal(e.Stamp(), op, data, meta)
}

// Start implements env.Handler.
func (o *Optimistic) Start(e env.Env) {
	jitter := time.Duration(e.Rand().Int63n(int64(o.cfg.Interval)))
	e.After(o.cfg.Interval+jitter, timerAntiEntropy, nil)
}

// Timer implements env.Handler.
func (o *Optimistic) Timer(e env.Env, key string, _ any) {
	if key != timerAntiEntropy {
		return
	}
	if len(o.peers) > 0 {
		peer := o.peers[e.Rand().Intn(len(o.peers))]
		for _, f := range o.st.Files() {
			e.Send(peer, wire.AntiEntropyRequest{File: f, VV: o.st.Open(f).Vector()})
		}
	}
	e.After(o.cfg.Interval, timerAntiEntropy, nil)
}

// Recv implements env.Handler.
func (o *Optimistic) Recv(e env.Env, from id.NodeID, msg env.Message) {
	switch m := msg.(type) {
	case wire.AntiEntropyRequest:
		rep := o.st.Open(m.File)
		e.Send(from, wire.AntiEntropyReply{
			File:    m.File,
			VV:      rep.Vector(),
			Updates: rep.MissingFrom(m.VV),
		})
		// Symmetric: pull back what the requester has that we lack.
		if vv.Compare(rep.Vector(), m.VV) == vv.Concurrent {
			o.noteConflict(e, m.File, from, m.VV)
		}
	case wire.AntiEntropyReply:
		rep := o.st.Open(m.File)
		if vv.Compare(rep.Vector(), m.VV) == vv.Concurrent {
			o.noteConflict(e, m.File, from, m.VV)
		}
		rep.ApplyAll(m.Updates)
		o.Exchanges++
	}
}

func (o *Optimistic) noteConflict(e env.Env, file id.FileID, peer id.NodeID, foreign *vv.Vector) {
	o.Conflicts++
	if o.OnConflict == nil {
		return
	}
	// Age of the foreign updates we had not seen: detection delay. The
	// whole compacted gap collapses to the foreign watermark — an upper
	// bound, so the delay is never over-reported — and the loop walks
	// only the bounded in-window suffix, never total history.
	local := o.st.Open(file).Vector()
	var oldest vv.Stamp
	note := func(s vv.Stamp) {
		if s > 0 && (oldest == 0 || s < oldest) {
			oldest = s
		}
	}
	for n, fe := range foreign.Entries {
		start := local.Count(n)
		if fe.Base > start {
			note(fe.Watermark)
			start = fe.Base
		}
		for i := start; i < fe.Count; i++ {
			s, _ := fe.StampAt(i)
			note(s)
		}
	}
	since := time.Duration(0)
	if oldest > 0 {
		since = time.Duration(vv.Stamp(e.Stamp()) - oldest)
	}
	o.OnConflict(e, ConflictNotice{File: file, Peer: peer, Since: since})
}

// ---- Strong ----

// StrongConfig tunes the primary-copy protocol.
type StrongConfig struct {
	// Replicas is the full replica set (primary included).
	Replicas []id.NodeID
}

// CommitNotice reports a committed write back to the issuing node.
type CommitNotice struct {
	File    id.FileID
	Update  wire.Update
	Latency time.Duration
}

type pendingCommit struct {
	update   wire.Update
	acks     int
	origin   id.NodeID
	issuedAt time.Time
}

// Strong is one node of the strong-consistency baseline.
type Strong struct {
	cfg     StrongConfig
	self    id.NodeID
	primary id.NodeID // the ordering node: the lowest replica ID
	st      *store.Store

	// primary state
	commitSeq int
	pending   map[int]*pendingCommit

	// writer state
	issued map[wire.UpdateID]time.Time

	// OnCommit fires at the writer when its write is fully replicated.
	OnCommit func(e env.Env, n CommitNotice)

	// Commits counts writes this node committed as primary.
	Commits int
}

// NewStrong creates a strong-baseline node.
func NewStrong(cfg StrongConfig, self id.NodeID) *Strong {
	var primary id.NodeID
	if len(cfg.Replicas) > 0 {
		primary = slices.Min(cfg.Replicas)
	}
	return &Strong{
		cfg:     cfg,
		self:    self,
		primary: primary,
		st:      store.New(self),
		pending: make(map[int]*pendingCommit),
		issued:  make(map[wire.UpdateID]time.Time),
	}
}

// Store exposes the node's replica store.
func (s *Strong) Store() *store.Store { return s.st }

// Write forwards the write to the primary and returns immediately; the
// commit arrives via OnCommit once every replica acknowledged.
func (s *Strong) Write(e env.Env, file id.FileID, op string, data []byte, meta float64) wire.Update {
	u := wire.Update{
		File:   file,
		Writer: s.self,
		Seq:    s.st.Open(file).Vector().Count(s.self) + len(s.issued) + 1,
		At:     e.Stamp(),
		Meta:   meta,
		Op:     op,
		Data:   data,
	}
	s.issued[u.ID()] = e.Now()
	e.Send(s.primary, wire.StrongWrite{File: file, Update: u})
	return u
}

// Start implements env.Handler.
func (s *Strong) Start(env.Env) {}

// Timer implements env.Handler.
func (s *Strong) Timer(env.Env, string, any) {}

// Recv implements env.Handler.
func (s *Strong) Recv(e env.Env, from id.NodeID, msg env.Message) {
	switch m := msg.(type) {
	case wire.StrongWrite:
		if s.self != s.primary {
			return
		}
		s.commitSeq++
		s.pending[s.commitSeq] = &pendingCommit{update: m.Update, origin: from, issuedAt: e.Now()}
		for _, r := range s.cfg.Replicas {
			e.Send(r, wire.StrongReplicate{File: m.File, Update: m.Update, Commit: s.commitSeq})
		}
	case wire.StrongReplicate:
		s.st.Open(m.File).Apply(m.Update)
		e.Send(from, wire.StrongAck{File: m.File, Commit: m.Commit})
	case wire.StrongAck:
		p, ok := s.pending[m.Commit]
		if !ok {
			return
		}
		p.acks++
		if p.acks >= len(s.cfg.Replicas) {
			delete(s.pending, m.Commit)
			s.Commits++
			e.Send(p.origin, wire.StrongCommitted{File: m.File, Update: p.update})
		}
	case wire.StrongCommitted:
		issuedAt, ok := s.issued[m.Update.ID()]
		if !ok {
			return
		}
		delete(s.issued, m.Update.ID())
		if s.OnCommit != nil {
			s.OnCommit(e, CommitNotice{File: m.File, Update: m.Update, Latency: e.Now().Sub(issuedAt)})
		}
	}
}
