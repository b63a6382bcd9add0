// Package resolve implements IDEA's inconsistency resolution (§4.5): the
// resolution policies of §4.5.1 (invalidate-both, highest-ID wins,
// priority-based, plus a merge-all extension), and the two initiation
// schemes of §4.5.2:
//
//   - background resolution, started periodically by the designated
//     top-layer replica, which sequentially collects every member's
//     version information, derives the consistent replica, and informs
//     the members; and
//   - active resolution, triggered by an explicit user demand, which runs
//     a two-phase protocol: a parallel call-for-attention (phase 1) with
//     randomized back-off to suppress duplicate initiators, followed by
//     the same sequential collect/inform (phase 2).
//
// Phase-1 semantics are configurable: FastPhase1 reproduces the paper's
// sub-millisecond phase-1 measurement (CFAs are dispatched in parallel and
// the initiator proceeds immediately; competing initiators are suppressed
// by back-off on the member side), while StrictPhase1 waits for every
// acknowledgement before phase 2 — the "strict ablation" rows of Table 2
// in cmd/idea-bench (experiments.RunTable2).
package resolve

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/store"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Policy selects how a consistent replica is derived from conflicting
// candidates (§4.5.1).
type Policy int

// The resolution policies. Values are stable and match the set_resolution
// API's integer parameter.
const (
	// InvalidateBoth rolls every replica back to the common consistent
	// prefix: conflicting updates are all cleared "to prevent ambiguity
	// and ensure fairness".
	InvalidateBoth Policy = 1
	// HighestID adopts the replica of the conflicting writer with the
	// larger (randomly assigned) node ID — the paper's default for both
	// evaluated applications.
	HighestID Policy = 2
	// PriorityBased adopts the replica of the highest-priority writer
	// (ties broken by node ID).
	PriorityBased Policy = 3
	// MergeAll converges on the union of all updates (no loss); an
	// extension useful when application operations commute.
	MergeAll Policy = 4
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case InvalidateBoth:
		return "invalidate-both"
	case HighestID:
		return "highest-id"
	case PriorityBased:
		return "priority"
	case MergeAll:
		return "merge-all"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Phase1Mode selects the call-for-attention semantics.
type Phase1Mode int

// Phase-1 modes.
const (
	// FastPhase1 dispatches CFAs and proceeds without waiting — the
	// paper's measured behaviour (0.468 ms, independent of layer size).
	FastPhase1 Phase1Mode = iota
	// StrictPhase1 waits for all positive acknowledgements; any refusal
	// triggers randomized back-off and retry.
	StrictPhase1
)

// Config parameterizes a Resolver.
type Config struct {
	// Policy is the resolution policy; zero means HighestID.
	Policy Policy
	// Phase1 selects fast or strict call-for-attention.
	Phase1 Phase1Mode
	// Priorities maps nodes to priorities for PriorityBased.
	Priorities map[id.NodeID]id.Priority
	// ParallelCollect switches phase 2 from the paper's sequential
	// traversal to the parallel variant §6.2 suggests ("it is not
	// difficult to exploit parallelism for the second phase: letting an
	// active writer contact all the other active writers at once").
	// Phase-2 delay then costs ~1 RTT instead of (n-1) RTTs.
	ParallelCollect bool
}

func (c Config) withDefaults() Config {
	if c.Policy == 0 {
		c.Policy = HighestID
	}
	return c
}

// Outcome describes one completed resolution from the initiator's side.
type Outcome struct {
	Token   int64
	File    id.FileID
	Active  bool // active (user-demanded) vs background
	Winner  id.NodeID
	Members int // top-layer members visited (excluding initiator)
	Skipped int // members that timed out during collect
	// Phase1 is the call-for-attention duration (dispatch time under
	// FastPhase1; time to full acknowledgement under StrictPhase1).
	Phase1 time.Duration
	// Phase2 covers the sequential collect traversal through the final
	// inform dispatch — the dominant cost (Table 2).
	Phase2 time.Duration
	// Aborted is true when the initiator backed off permanently (a
	// competing resolution finished the job).
	Aborted bool
}

// OutcomeFunc receives initiator-side outcomes.
type OutcomeFunc func(e env.Env, o Outcome)

// AppliedFunc fires on every node (initiator or member) whose replica just
// adopted a consistent image for file.
type AppliedFunc func(e env.Env, file id.FileID, winner id.NodeID)

const (
	timerRetry      = "resolve.retry"
	timerVisit      = "resolve.visit"
	timerBack       = "resolve.background"
	maxBackoffTries = 6
	// backoffMin/backoffMax bound the randomized retry delay of §4.5.2.
	backoffMin = 200 * time.Millisecond
	backoffMax = time.Second
	// visitTimeout bounds one sequential collect visit; an unresponsive
	// member is skipped.
	visitTimeout = 3 * time.Second
)

// CFADispatchCost models the initiator-local cost of framing one
// call-for-attention and handing it to the transport. Under FastPhase1
// the paper's phase-1 measurement is exactly this dispatch loop (0.468 ms
// for a four-node top layer, i.e. ~0.15 ms per member); virtual time does
// not otherwise advance during local execution, so the cost is charged
// explicitly to reproduce Table 2's phase-1 row.
const CFADispatchCost = 156 * time.Microsecond

type session struct {
	token   int64
	file    id.FileID
	active  bool
	members []id.NodeID
	next    int
	skipped int
	acks    map[id.NodeID]bool
	vecs    map[id.NodeID]*vv.Vector
	// view is the initiator's per-writer index as of phase 2; pool holds
	// only the updates members sent back. Together they are every update
	// the session can ship, at a cost independent of log depth.
	view     store.View
	pool     map[wire.UpdateID]wire.Update
	p1start  time.Time
	p1dur    time.Duration
	p2start  time.Time
	inPhase2 bool
	tc       tracing.Context
}

type retryState struct {
	tries int
	want  bool // an active resolution is still wanted
	tc    tracing.Context
}

// Resolver runs on every node; the owning node routes "resolve." messages
// and timers to it.
type Resolver struct {
	cfg  Config
	self id.NodeID
	mem  overlay.Membership
	st   *store.Store

	onOutcome OutcomeFunc
	onApplied AppliedFunc
	tr        *tracing.Tracer

	nextToken int64
	sessions  map[int64]*session
	// engaged tracks, per file, the foreign resolution this node acked.
	engaged map[id.FileID]int64
	retries map[id.FileID]*retryState
	bgFreq  map[id.FileID]time.Duration

	// Resolutions counts completed initiator-side resolutions.
	Resolutions int
	// Backoffs counts CFA-induced retreats.
	Backoffs int

	met resolveMetrics
}

// resolveMetrics are the telemetry handles for resolution sessions;
// zero-value (nil) handles are no-ops.
type resolveMetrics struct {
	phase1     *telemetry.Histogram // call-for-attention duration
	phase2     *telemetry.Histogram // collect/inform traversal duration
	session    *telemetry.Histogram // end-to-end initiator-side duration
	active     *telemetry.Counter   // user-demanded sessions completed
	background *telemetry.Counter   // background sessions completed
	backoffs   *telemetry.Counter   // CFA-induced retreats
	aborted    *telemetry.Counter   // sessions abandoned to a competitor
	skipped    *telemetry.Counter   // members skipped on visit timeout
	informs    *telemetry.Counter   // member-side image adoptions
}

// AttachMetrics wires the resolver to a registry; call before Start.
func (r *Resolver) AttachMetrics(reg *telemetry.Registry) {
	r.met = resolveMetrics{
		phase1:     reg.Histogram("resolve.phase1_seconds"),
		phase2:     reg.Histogram("resolve.phase2_seconds"),
		session:    reg.Histogram("resolve.session_seconds"),
		active:     reg.Counter("resolve.active_total"),
		background: reg.Counter("resolve.background_total"),
		backoffs:   reg.Counter("resolve.backoffs_total"),
		aborted:    reg.Counter("resolve.aborted_total"),
		skipped:    reg.Counter("resolve.skipped_members_total"),
		informs:    reg.Counter("resolve.informs_applied_total"),
	}
}

// New creates a Resolver.
func New(cfg Config, self id.NodeID, mem overlay.Membership, st *store.Store) *Resolver {
	return &Resolver{
		cfg:      cfg.withDefaults(),
		self:     self,
		mem:      mem,
		st:       st,
		sessions: make(map[int64]*session),
		engaged:  make(map[id.FileID]int64),
		retries:  make(map[id.FileID]*retryState),
		bgFreq:   make(map[id.FileID]time.Duration),
	}
}

// OnOutcome installs the initiator-side completion callback.
func (r *Resolver) OnOutcome(f OutcomeFunc) { r.onOutcome = f }

// OnApplied installs the every-node image-adoption callback.
func (r *Resolver) OnApplied(f AppliedFunc) { r.onApplied = f }

// SetTracer attaches the node's causal tracer (nil is fine and free).
func (r *Resolver) SetTracer(tr *tracing.Tracer) { r.tr = tr }

// SetPolicy changes the resolution policy (the set_resolution API).
func (r *Resolver) SetPolicy(p Policy) { r.cfg.Policy = p }

// Policy returns the current policy.
func (r *Resolver) Policy() Policy { return r.cfg.Policy }

// ---- Active resolution (§4.5.2) ----

// RequestActive triggers active resolution for file ("the nearest replica
// — including the user's local copy — takes the responsibility"). If a
// competing resolution is already engaged on this node, the request backs
// off and retries; receiving the competitor's inform in the meantime
// cancels the retry.
func (r *Resolver) RequestActive(e env.Env, file id.FileID) {
	r.RequestActiveTraced(e, file, tracing.Context{})
}

// RequestActiveTraced is RequestActive carrying the causal trace context
// of the detection verdict (or user demand) that triggered it, so the
// whole session joins the originating write's timeline.
func (r *Resolver) RequestActiveTraced(e env.Env, file id.FileID, tc tracing.Context) {
	if _, busy := r.engaged[file]; busy {
		r.Backoffs++
		r.met.backoffs.Inc()
		r.scheduleRetry(e, file, tc)
		return
	}
	r.start(e, file, true, tc)
}

func (r *Resolver) scheduleRetry(e env.Env, file id.FileID, tc tracing.Context) {
	st, ok := r.retries[file]
	if !ok {
		st = &retryState{}
		r.retries[file] = st
	}
	st.want = true
	if tc.Sampled() {
		st.tc = tc
	}
	if st.tries >= maxBackoffTries {
		return
	}
	st.tries++
	d := backoffMin + time.Duration(e.Rand().Int63n(int64(backoffMax-backoffMin)))
	e.After(d, timerRetry, file)
}

// ---- Background resolution (§4.5.2) ----

// SetBackgroundFreq arms (or re-arms) periodic background resolution for
// file with period freq (the set_background_freq API). A zero freq
// disables it. Every top-layer member may arm the timer; only the
// designated initiator — the lowest-ID member at fire time — actually
// runs the round, so re-electing the overlay needs no coordination.
func (r *Resolver) SetBackgroundFreq(e env.Env, file id.FileID, freq time.Duration) {
	prev := r.bgFreq[file]
	r.bgFreq[file] = freq
	if prev == 0 && freq > 0 {
		e.After(freq, timerBack, file)
	}
}

// BackgroundFreq returns the current period (zero when disabled).
func (r *Resolver) BackgroundFreq(file id.FileID) time.Duration { return r.bgFreq[file] }

func (r *Resolver) designated(file id.FileID) id.NodeID {
	top := r.mem.Top(file)
	if len(top) == 0 {
		return r.self
	}
	return top[0] // sorted ascending: lowest ID
}

// ---- Session machinery ----

func (r *Resolver) start(e env.Env, file id.FileID, active bool, tc tracing.Context) {
	r.nextToken++
	token := r.nextToken
	members := overlay.TopPeers(r.mem, file, r.self)
	activeArg := int64(0)
	if active {
		activeArg = 1
	}
	s := &session{
		token:   token,
		file:    file,
		active:  active,
		members: members,
		acks:    make(map[id.NodeID]bool),
		vecs:    make(map[id.NodeID]*vv.Vector),
		pool:    make(map[wire.UpdateID]wire.Update),
		p1start: e.Now(),
		tc:      r.tr.Event(e, tc, tracing.EvResolveStart, file, id.Nil, activeArg),
	}
	r.sessions[token] = s
	r.engaged[file] = token
	delete(r.retries, file)

	if active {
		// Phase 1: parallel call-for-attention.
		for _, m := range members {
			e.Send(m, wire.CallForAttention{File: file, Initiator: r.self, Token: token, TC: s.tc})
		}
		if r.cfg.Phase1 == FastPhase1 || len(members) == 0 {
			s.p1dur = e.Now().Sub(s.p1start) + time.Duration(len(members))*CFADispatchCost
			r.enterPhase2(e, s)
		}
		// StrictPhase1 waits for acks in HandleCFAAck.
		return
	}
	// Background resolution skips the call-for-attention.
	r.enterPhase2(e, s)
}

// traceApplies records the "apply" span for every sampled update in
// updates that rep's vector (before adoption) shows as new here — the
// moment the write becomes visible on this node. Call before AdoptImage
// mutates the vector.
func (r *Resolver) traceApplies(e env.Env, rep *store.Replica, updates []wire.Update, file id.FileID) {
	if r.tr == nil {
		return
	}
	v := rep.LiveVector()
	for _, u := range updates {
		if u.TC.Sampled() && u.Seq > v.Count(u.Writer) {
			r.tr.Event(e, u.TC, tracing.EvApply, file, u.Writer, int64(u.Seq))
		}
	}
}

func (r *Resolver) enterPhase2(e env.Env, s *session) {
	s.inPhase2 = true
	s.p2start = e.Now()
	// Seed the candidate set with the local replica. Every vector a
	// session holds, sends or adopts is read for counts only, so it
	// carries no stamp windows.
	local := r.st.Open(s.file)
	s.vecs[r.self] = local.Counts()
	s.view = local.View()
	if r.cfg.ParallelCollect {
		if len(s.members) == 0 {
			r.finish(e, s)
			return
		}
		for _, m := range s.members {
			e.Send(m, wire.CollectRequest{File: s.file, Token: s.token, VV: s.vecs[r.self], TC: s.tc})
		}
		e.After(visitTimeout, timerVisit, visitKey{file: s.file, token: s.token, visit: -1})
		return
	}
	r.visitNext(e, s)
}

func (r *Resolver) visitNext(e env.Env, s *session) {
	if s.next >= len(s.members) {
		r.finish(e, s)
		return
	}
	m := s.members[s.next]
	e.Send(m, wire.CollectRequest{File: s.file, Token: s.token, VV: s.vecs[r.self], TC: s.tc})
	e.After(visitTimeout, timerVisit, visitKey{file: s.file, token: s.token, visit: s.next})
}

type visitKey struct {
	file  id.FileID
	token int64
	visit int
}

// TimerFile maps a resolve timer to the file whose serialization domain
// must run it; ok is false for keys the resolver does not own. Sharded
// handlers use it to implement env.Sharded.ShardOfTimer.
func TimerFile(key string, data any) (id.FileID, bool) {
	switch key {
	case timerRetry, timerBack:
		if f, ok := data.(id.FileID); ok {
			return f, true
		}
		return "", true
	case timerVisit:
		if vk, ok := data.(visitKey); ok {
			return vk.file, true
		}
		return "", true
	}
	return "", false
}

// HandleCollectReply advances the traversal: sequentially (next member)
// by default, or by counting down outstanding parallel replies.
func (r *Resolver) HandleCollectReply(e env.Env, from id.NodeID, m wire.CollectReply) {
	s, ok := r.sessions[m.Token]
	if !ok || !s.inPhase2 {
		return
	}
	if r.cfg.ParallelCollect {
		if _, dup := s.vecs[from]; dup {
			return
		}
		s.vecs[from] = m.VV
		s.collect(m.Updates)
		s.next++
		if s.next >= len(s.members) {
			r.finish(e, s)
		}
		return
	}
	if s.next >= len(s.members) || s.members[s.next] != from {
		return // stale or out-of-order reply
	}
	s.vecs[from] = m.VV
	s.collect(m.Updates)
	s.next++
	r.visitNext(e, s)
}

// collect adds a member's updates to the pool; a later copy of the same
// (writer, seq) replaces an earlier one.
func (s *session) collect(us []wire.Update) {
	for _, u := range us {
		s.pool[u.ID()] = u
	}
}

func (r *Resolver) finish(e env.Env, s *session) {
	winner, winVec := r.chooseWinner(s)
	img := newImage(s, winVec)
	// Inform every member in parallel with exactly the updates it lacks.
	// The traversal follows the sorted member slice — not the vecs map —
	// so the send order (and with it every seeded emulation schedule) is
	// deterministic. Members that timed out during collect still get a
	// best-effort inform; lacking their vector, ship the whole winning
	// image.
	for _, m := range s.members {
		e.Send(m, wire.Inform{
			File:    s.file,
			Token:   s.token,
			Winner:  winner,
			VV:      winVec,
			Updates: img.missingFrom(s.vecs[m]), // nil vector: the member timed out
			TC:      s.tc,
		})
	}
	// Adopt locally.
	localMissing := img.missingFrom(s.vecs[r.self])
	local := r.st.Open(s.file)
	r.traceApplies(e, local, localMissing, s.file)
	local.AdoptImage(winVec, localMissing, r.invalidates())
	p2 := e.Now().Sub(s.p2start)
	r.tr.Event(e, s.tc, tracing.EvVerdict, s.file, winner, int64(len(s.members)))

	delete(r.sessions, s.token)
	if r.engaged[s.file] == s.token {
		delete(r.engaged, s.file)
	}
	r.Resolutions++
	r.met.phase1.ObserveDuration(s.p1dur)
	r.met.phase2.ObserveDuration(p2)
	r.met.session.ObserveDuration(s.p1dur + p2)
	if s.active {
		r.met.active.Inc()
	} else {
		r.met.background.Inc()
	}
	if s.skipped > 0 {
		r.met.skipped.Add(int64(s.skipped))
	}
	if r.onApplied != nil {
		r.onApplied(e, s.file, winner)
	}
	if r.onOutcome != nil {
		r.onOutcome(e, Outcome{
			Token:   s.token,
			File:    s.file,
			Active:  s.active,
			Winner:  winner,
			Members: len(s.members),
			Skipped: s.skipped,
			Phase1:  s.p1dur,
			Phase2:  p2,
		})
	}
}

// invalidates reports whether the current policy discards conflicting
// extras when adopting an image.
func (r *Resolver) invalidates() bool { return r.cfg.Policy != MergeAll }

// chooseWinner derives the consistent replica per §4.5.1. For the
// ID- and priority-based policies the winner is chosen among the
// *maximal* candidates — replicas not dominated by any other — since
// "the user with the larger ID wins" applies to the conflicting writers:
// a member that merely lags (its vector dominated by another's) is not a
// party to the conflict and must not win with a stale image.
func (r *Resolver) chooseWinner(s *session) (id.NodeID, *vv.Vector) {
	if len(s.vecs) == 0 {
		return r.self, vv.New()
	}
	maximal := maximalCandidates(s.vecs)
	ids := make([]id.NodeID, 0, len(maximal))
	for n := range maximal {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	switch r.cfg.Policy {
	case InvalidateBoth:
		return id.Nil, commonPrefix(s.vecs)
	case PriorityBased:
		best := ids[0]
		for _, n := range ids[1:] {
			pb, pn := r.cfg.Priorities[best], r.cfg.Priorities[n]
			if pn > pb || (pn == pb && n > best) {
				best = n
			}
		}
		return best, maximal[best].Clone()
	case MergeAll:
		merged := vv.New()
		for _, v := range s.vecs {
			merged = vv.Merge(merged, v)
		}
		top := ids[len(ids)-1]
		return top, merged
	default: // HighestID
		top := ids[len(ids)-1]
		return top, maximal[top].Clone()
	}
}

// maximalCandidates filters out candidates strictly dominated by another
// candidate (ties on equal vectors keep every holder; the ID order breaks
// them later).
func maximalCandidates(vecs map[id.NodeID]*vv.Vector) map[id.NodeID]*vv.Vector {
	out := make(map[id.NodeID]*vv.Vector, len(vecs))
	for n, v := range vecs {
		dominated := false
		for m, u := range vecs {
			if m != n && vv.Compare(u, v) == vv.Greater {
				dominated = true
				break
			}
		}
		if !dominated {
			out[n] = v
		}
	}
	return out
}

// commonPrefix returns the per-writer minimum vector across candidates:
// the most recent state every replica agrees on. Entries are cut with
// Entry.Prefix so the bounded-window bookkeeping (compacted base and
// watermark) stays intact.
func commonPrefix(vecs map[id.NodeID]*vv.Vector) *vv.Vector {
	out := vv.New()
	first := true
	for _, v := range vecs {
		if first {
			out = v.Clone()
			first = false
			continue
		}
		for _, w := range out.Writers() {
			out.TruncateWriter(w, v.Count(w))
			if out.Count(w) == 0 {
				out.Delete(w)
			}
		}
	}
	out.Err = vv.Triple{}
	return out
}

// image is the winning replica as a finished session can ship it: the
// initiator's phase-2 view plus the pooled member updates, capped by the
// winning vector.
type image struct {
	view    store.View
	win     *vv.Vector
	writers []id.NodeID   // every writer in the view or the pool, ascending
	pooled  []wire.Update // the pool, ordered by (writer, seq)
}

func newImage(s *session, win *vv.Vector) image {
	img := image{view: s.view, win: win, writers: s.view.Writers()}
	img.pooled = make([]wire.Update, 0, len(s.pool))
	for _, u := range s.pool {
		img.pooled = append(img.pooled, u)
		img.writers = append(img.writers, u.Writer)
	}
	sort.Slice(img.pooled, func(i, j int) bool {
		a, b := img.pooled[i], img.pooled[j]
		return a.Writer < b.Writer || (a.Writer == b.Writer && a.Seq < b.Seq)
	})
	slices.Sort(img.writers)
	img.writers = slices.Compact(img.writers)
	return img
}

// missingFrom returns the image's updates the holder of target lacks —
// all of them when target is nil — ordered by (writer, seq). It costs
// what target is missing plus the pool, not the initiator's log depth.
// Where a member sent an update the view also holds, the member's copy
// wins.
func (img image) missingFrom(target *vv.Vector) []wire.Update {
	var out []wire.Update
	pooled := img.pooled
	for _, w := range img.writers {
		after, upTo := 0, img.win.Count(w)
		if target != nil {
			after = target.Count(w)
		}
		n := 0
		for n < len(pooled) && pooled[n].Writer == w {
			n++
		}
		extra := pooled[:n]
		pooled = pooled[n:]
		for len(extra) > 0 && extra[0].Seq <= after {
			extra = extra[1:]
		}
		for len(extra) > 0 && extra[len(extra)-1].Seq > upTo {
			extra = extra[:len(extra)-1]
		}
		for _, u := range img.view.Range(w, after, upTo) {
			for len(extra) > 0 && extra[0].Seq < u.Seq {
				out = append(out, extra[0])
				extra = extra[1:]
			}
			if len(extra) > 0 && extra[0].Seq == u.Seq {
				continue
			}
			out = append(out, u)
		}
		out = append(out, extra...)
	}
	return out
}

// ---- Member-side handlers ----

// HandleCFA processes a call-for-attention: refuse when engaged with a
// competing resolution, otherwise engage and acknowledge. A pending local
// retry is cancelled — "if one receives another's notice before it tries,
// it will simply cancel its own resolution process".
func (r *Resolver) HandleCFA(e env.Env, from id.NodeID, m wire.CallForAttention) {
	if tok, busy := r.engaged[m.File]; busy && tok != m.Token {
		e.Send(from, wire.CFAAck{File: m.File, Token: m.Token, OK: false})
		return
	}
	r.tr.Event(e, m.TC, tracing.EvResolveCFA, m.File, from, m.Token)
	r.engaged[m.File] = m.Token
	if st, ok := r.retries[m.File]; ok {
		st.want = false // someone else is on it
	}
	e.Send(from, wire.CFAAck{File: m.File, Token: m.Token, OK: true})
}

// HandleCFAAck drives StrictPhase1: all-positive acks enter phase 2; any
// refusal aborts into back-off.
func (r *Resolver) HandleCFAAck(e env.Env, from id.NodeID, m wire.CFAAck) {
	s, ok := r.sessions[m.Token]
	if !ok || s.inPhase2 || r.cfg.Phase1 != StrictPhase1 {
		return
	}
	if !m.OK {
		r.abort(e, s)
		return
	}
	s.acks[from] = true
	if len(s.acks) >= len(s.members) {
		s.p1dur = e.Now().Sub(s.p1start)
		r.enterPhase2(e, s)
	}
}

func (r *Resolver) abort(e env.Env, s *session) {
	for _, m := range s.members {
		e.Send(m, wire.CFACancel{File: s.file, Token: s.token})
	}
	delete(r.sessions, s.token)
	if r.engaged[s.file] == s.token {
		delete(r.engaged, s.file)
	}
	r.Backoffs++
	r.met.backoffs.Inc()
	r.met.aborted.Inc()
	if r.onOutcome != nil {
		r.onOutcome(e, Outcome{Token: s.token, File: s.file, Active: s.active, Aborted: true})
	}
	r.scheduleRetry(e, s.file, s.tc)
}

// HandleCFACancel releases an engagement abandoned by its initiator.
func (r *Resolver) HandleCFACancel(_ env.Env, m wire.CFACancel) {
	if r.engaged[m.File] == m.Token {
		delete(r.engaged, m.File)
	}
}

// HandleCollectRequest returns the member's vector, as counts, plus every
// update the initiator is missing.
func (r *Resolver) HandleCollectRequest(e env.Env, from id.NodeID, m wire.CollectRequest) {
	rep := r.st.Open(m.File)
	var missing []wire.Update
	if m.VV != nil {
		missing = rep.MissingFrom(m.VV)
	} else {
		missing = rep.Log()
	}
	tc := r.tr.Event(e, m.TC, tracing.EvCollect, m.File, from, m.Token)
	e.Send(from, wire.CollectReply{File: m.File, Token: m.Token, VV: rep.Counts(), Updates: missing, TC: tc})
}

// HandleInform adopts the consistent image and acknowledges.
func (r *Resolver) HandleInform(e env.Env, from id.NodeID, m wire.Inform) {
	r.met.informs.Inc()
	rep := r.st.Open(m.File)
	r.tr.Event(e, m.TC, tracing.EvInform, m.File, from, m.Token)
	r.traceApplies(e, rep, m.Updates, m.File)
	rep.AdoptImage(m.VV, m.Updates, r.invalidates())
	if r.engaged[m.File] == m.Token {
		delete(r.engaged, m.File)
	}
	if st, ok := r.retries[m.File]; ok && !st.want {
		delete(r.retries, m.File)
	}
	e.Send(from, wire.InformAck{File: m.File, Token: m.Token})
	if r.onApplied != nil {
		r.onApplied(e, m.File, m.Winner)
	}
}

// ---- Timers ----

// Timer handles resolve timers; it returns false for keys it does not own.
func (r *Resolver) Timer(e env.Env, key string, data any) bool {
	switch key {
	case timerRetry:
		file := data.(id.FileID)
		st, ok := r.retries[file]
		if !ok || !st.want {
			return true
		}
		if _, busy := r.engaged[file]; busy {
			r.scheduleRetry(e, file, st.tc)
			return true
		}
		delete(r.retries, file)
		r.start(e, file, true, st.tc)
	case timerVisit:
		vk := data.(visitKey)
		s, ok := r.sessions[vk.token]
		if !ok || !s.inPhase2 {
			return true
		}
		if vk.visit == -1 {
			// Parallel-collect deadline: finish with whoever replied.
			s.skipped = len(s.members) - len(s.vecs) + 1
			r.finish(e, s)
			return true
		}
		if s.next != vk.visit {
			return true // visit already completed
		}
		// Skip the unresponsive member and move on.
		s.skipped++
		s.next++
		r.visitNext(e, s)
	case timerBack:
		file := data.(id.FileID)
		freq := r.bgFreq[file]
		if freq <= 0 {
			return true
		}
		if r.designated(file) == r.self {
			if _, busy := r.engaged[file]; !busy {
				r.start(e, file, false, tracing.Context{})
			}
		}
		e.After(freq, timerBack, file)
	default:
		return false
	}
	return true
}

// Recv dispatches resolution messages; it returns false for other kinds.
func (r *Resolver) Recv(e env.Env, from id.NodeID, msg env.Message) bool {
	switch m := msg.(type) {
	case wire.CallForAttention:
		r.HandleCFA(e, from, m)
	case wire.CFAAck:
		r.HandleCFAAck(e, from, m)
	case wire.CFACancel:
		r.HandleCFACancel(e, m)
	case wire.CollectRequest:
		r.HandleCollectRequest(e, from, m)
	case wire.CollectReply:
		r.HandleCollectReply(e, from, m)
	case wire.Inform:
		r.HandleInform(e, from, m)
	case wire.InformAck:
		// Informational only; convergence is already accounted.
	default:
		return false
	}
	return true
}
