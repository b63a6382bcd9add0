// Package detect implements IDEA's inconsistency-detection framework
// (§4.3), a re-implementation of the authors' two-layer IDF [14,15,16]:
//
//   - the powerful detect(update) API: given a locally applied update, the
//     writer exchanges extended version vectors with the file's top layer;
//     the call completes with "success" when no conflict exists or "fail"
//     with a quantified consistency level when one does;
//   - writer-side scoring: every top-layer peer answers a probe with its
//     replica's vector above the writer's counts, and the writer compares
//     it with its own and scores conflicts with Formula 1;
//   - the §4.4.2 top-vs-bottom discrepancy check: a conflict report from
//     the background gossip sweep carries the reporter's vector above the
//     digest's counts, the digest's origin scores the vector it advertised
//     against it the same way, and a level below the most recent
//     top-layer verdict by more than epsilon triggers the caller's
//     rollback hook.
//
// The detection module is deliberately independent of resolution: as the
// paper notes, it "can be used by other consistency control mechanisms"
// as well.
package detect

import (
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/quantify"
	"idea/internal/store"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Config parameterizes a Detector.
type Config struct {
	// Timeout bounds how long a detect() waits for top-layer replies
	// before finalizing with whatever arrived; zero means 2 s.
	Timeout time.Duration
}

// discrepancyEps is the §4.4.2 epsilon: a bottom-layer level within eps
// of the top-layer one keeps the top verdict intact ("78% vs 80%" is
// cited as sufficiently close).
const discrepancyEps = 0.05

func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	return c
}

// Result is the outcome of one detect(update) call.
type Result struct {
	Token int64
	File  id.FileID
	// OK is the API's "success": no conflicting replica was found.
	OK bool
	// Level is the worst (minimum) consistency level reported by any
	// top-layer peer; 1 when OK.
	Level float64
	// Triple is the error triple behind Level.
	Triple vv.Triple
	// Ref is the node whose replica served as reference state.
	Ref id.NodeID
	// Replies is how many top-layer peers answered before finalization.
	Replies int
	// Elapsed is the detection delay as observed by the writer.
	Elapsed time.Duration
	// At is the writer's clock at the verdict; a result observer records
	// with it instead of reading the clock again.
	At time.Time
	// TC is the causal trace context of the verdict (zero when the
	// triggering write was unsampled); the owner threads it into the
	// resolution it requests.
	TC tracing.Context
}

// ResultFunc receives completed detections on the writer.
type ResultFunc func(e env.Env, res Result)

// DiscrepancyFunc fires when the bottom layer contradicts the last
// top-layer verdict for a file beyond epsilon. bottom < top means the
// system is *less* consistent than the user was told; the owner decides
// whether to roll back (§4.4.2).
type DiscrepancyFunc func(e env.Env, file id.FileID, top, bottom float64, rep wire.GossipReport)

const timerTimeout = "detect.timeout"

// timeoutData is the payload of a probe-timeout timer. It carries the
// probe's file so the runtime can route the callback to the shard that
// owns the probe (env.Sharded.ShardOfTimer via TimerFile).
type timeoutData struct {
	file  id.FileID
	token int64
}

// TimerFile maps a detect timer to the file whose serialization domain
// must run it; ok is false for keys the detector does not own. Sharded
// handlers use it to implement env.Sharded.ShardOfTimer.
func TimerFile(key string, data any) (id.FileID, bool) {
	if key != timerTimeout {
		return "", false
	}
	if td, ok := data.(timeoutData); ok {
		return td.file, true
	}
	return "", true // unkeyed legacy payload: shard 0
}

type probe struct {
	token int64
	file  id.FileID
	// vv is the writer's vector when the probe started: the side of every
	// comparison the writer holds itself, and the floor the peers trim
	// their replies above.
	vv      *vv.Vector
	expect  int
	replies int
	worst   float64
	triple  vv.Triple
	ref     id.NodeID
	started time.Time
	tc      tracing.Context
}

// Detector runs on every node; the owning node routes detect messages,
// gossip reports, and "detect."-prefixed timers to it.
type Detector struct {
	cfg   Config
	self  id.NodeID
	mem   overlay.Membership
	st    *store.Store
	quant *quantify.Quantifier

	onResult      ResultFunc
	onDiscrepancy DiscrepancyFunc

	tr *tracing.Tracer

	nextToken int64
	inflight  map[int64]*probe
	// topVerdict remembers the last finalized top-layer level per file
	// for the discrepancy check.
	topVerdict map[id.FileID]float64

	// Detections counts completed detect() calls; Conflicts counts the
	// ones that returned "fail".
	Detections int
	Conflicts  int

	met detectMetrics
}

// detectMetrics are the telemetry handles for the detection hot path;
// zero-value (nil) handles are no-ops.
type detectMetrics struct {
	roundTrip    *telemetry.Histogram // writer-observed detect() delay
	level        *telemetry.Histogram // detected consistency levels
	probes       *telemetry.Counter   // detect() calls started
	conflicts    *telemetry.Counter   // "fail" verdicts
	timeouts     *telemetry.Counter   // probes finalized by timeout
	peerRequests *telemetry.Counter   // probes answered
	discrepancy  *telemetry.Counter   // §4.4.2 top-vs-bottom disagreements
}

// AttachMetrics wires the detector to a registry; call before Start.
func (d *Detector) AttachMetrics(reg *telemetry.Registry) {
	d.met = detectMetrics{
		roundTrip:    reg.Histogram("detect.roundtrip_seconds"),
		level:        reg.HistogramWith("detect.level", telemetry.LevelBounds()),
		probes:       reg.Counter("detect.probes_total"),
		conflicts:    reg.Counter("detect.conflicts_total"),
		timeouts:     reg.Counter("detect.timeouts_total"),
		peerRequests: reg.Counter("detect.peer_requests_total"),
		discrepancy:  reg.Counter("detect.discrepancies_total"),
	}
}

// New creates a Detector.
func New(cfg Config, self id.NodeID, mem overlay.Membership, st *store.Store, q *quantify.Quantifier) *Detector {
	if q == nil {
		q = quantify.Default()
	}
	return &Detector{
		cfg:        cfg.withDefaults(),
		self:       self,
		mem:        mem,
		st:         st,
		quant:      q,
		inflight:   make(map[int64]*probe),
		topVerdict: make(map[id.FileID]float64),
	}
}

// OnResult installs the completion callback.
func (d *Detector) OnResult(f ResultFunc) { d.onResult = f }

// SetTracer attaches the node's causal tracer (nil is fine and free).
func (d *Detector) SetTracer(tr *tracing.Tracer) { d.tr = tr }

// OnDiscrepancy installs the §4.4.2 discrepancy callback.
func (d *Detector) OnDiscrepancy(f DiscrepancyFunc) { d.onDiscrepancy = f }

// Quantifier exposes the scorer (shared with the resolver and controllers).
func (d *Detector) Quantifier() *quantify.Quantifier { return d.quant }

// TopVerdict returns the last finalized top-layer level for file, or 1
// when none exists.
func (d *Detector) TopVerdict(file id.FileID) float64 {
	if l, ok := d.topVerdict[file]; ok {
		return l
	}
	return 1
}

// Detect starts a detect(update) probe for file: the counts of the
// writer's current vector travel to every top-layer peer, and the writer
// scores each reply against the vector itself. It returns the probe
// token; the result arrives via OnResult. With no top-layer peers the
// probe completes immediately with success (a lone writer cannot
// conflict).
func (d *Detector) Detect(e env.Env, file id.FileID) int64 {
	return d.DetectTraced(e, file, tracing.Context{})
}

// DetectTraced is Detect carrying the causal trace context of the write
// that triggered it; every probe hop joins the write's timeline. A zero
// context (the unsampled common case) records nothing.
func (d *Detector) DetectTraced(e env.Env, file id.FileID, tc tracing.Context) int64 {
	d.nextToken++
	token := d.nextToken
	d.met.probes.Inc()
	now := e.Now()
	peers := overlay.TopPeers(d.mem, file, d.self)
	p := probe{
		token:   token,
		file:    file,
		expect:  len(peers),
		worst:   1,
		started: now,
		tc:      d.tr.Event(e, tc, tracing.EvDetectStart, file, id.Nil, token),
	}
	if p.expect == 0 {
		// Nothing to wait for: the probe finishes here and never reaches
		// the heap or the in-flight table.
		d.finish(e, &p, now)
		return token
	}
	// The snapshot shares the replica's windows (Clone is O(writers)); the
	// peers need only its counts.
	p.vv = d.st.Open(file).LiveVector().Clone()
	live := p
	d.inflight[token] = &live
	counts := p.vv.Counts()
	for _, peer := range peers {
		e.Send(peer, wire.DetectRequest{File: file, Token: token, VV: counts, TC: p.tc})
	}
	e.After(d.cfg.Timeout, timerTimeout, timeoutData{file: file, token: token})
	return token
}

// HandleRequest is the peer side: reply with the local replica's vector
// above the writer's counts, which is all the writer lacks to score it.
// The reply shares the replica's stamp windows, read in place.
func (d *Detector) HandleRequest(e env.Env, from id.NodeID, m wire.DetectRequest) {
	d.met.peerRequests.Inc()
	tc := d.tr.Event(e, m.TC, tracing.EvDetectPeer, m.File, from, m.Token)
	lv := d.st.Open(m.File).LiveVector()
	e.Send(from, wire.DetectReply{File: m.File, Token: m.Token, VV: lv.Above(m.VV), TC: tc})
}

// HandleReply compares the peer's vector with the writer's own and
// aggregates the verdict into the probe; the probe finalizes when every
// peer answered (or on timeout). Any difference between the vectors is
// inconsistency ("two replicas are inconsistent if their version vectors
// are different"): the writer's level is scored against the reference
// consistent state chosen from the two.
func (d *Detector) HandleReply(e env.Env, from id.NodeID, m wire.DetectReply) {
	p, ok := d.inflight[m.Token]
	if !ok {
		return
	}
	d.tr.Event(e, m.TC, tracing.EvDetectReply, m.File, from, m.Token)
	p.replies++
	if vv.Compare(p.vv, m.VV) != vv.Equal {
		if refID, triple, level := d.score(p.vv, from, m.VV); level < p.worst {
			p.worst, p.triple, p.ref = level, triple, refID
		}
	}
	if p.replies >= p.expect {
		delete(d.inflight, m.Token)
		d.finish(e, p, e.Now())
	}
}

// score is Formula 1 for a vector of this node's own against a peer's:
// the reference consistent state is chosen from the two, and own is
// scored against it. theirs may hold only what the peer has above own's
// counts (vv.Vector.Above); the level is the one the whole vector gives.
func (d *Detector) score(own *vv.Vector, peer id.NodeID, theirs *vv.Vector) (id.NodeID, vv.Triple, float64) {
	refID, ref := d.quant.RefSel(map[id.NodeID]*vv.Vector{d.self: own, peer: theirs})
	triple, level := d.quant.Score(own, ref)
	return refID, triple, level
}

// Timer handles detect timers; it returns false for keys it does not own.
func (d *Detector) Timer(e env.Env, key string, data any) bool {
	if key != timerTimeout {
		return false
	}
	if td, ok := data.(timeoutData); ok {
		if p, live := d.inflight[td.token]; live {
			d.met.timeouts.Inc()
			delete(d.inflight, td.token)
			d.finish(e, p, e.Now())
		}
	}
	return true
}

// finish delivers p's verdict as of now; the caller has already taken p out
// of the in-flight table, if it was ever in it.
func (d *Detector) finish(e env.Env, p *probe, now time.Time) {
	res := Result{
		Token:   p.token,
		File:    p.file,
		OK:      p.worst >= 1,
		Level:   p.worst,
		Triple:  p.triple,
		Ref:     p.ref,
		Replies: p.replies,
		Elapsed: now.Sub(p.started),
		At:      now,
		TC:      d.tr.Event(e, p.tc, tracing.EvDetectVerdict, p.file, id.Nil, int64(p.worst*1000)),
	}
	d.Detections++
	d.met.roundTrip.ObserveDuration(res.Elapsed)
	d.met.level.Observe(res.Level)
	if !res.OK {
		d.Conflicts++
		d.met.conflicts.Inc()
	}
	d.topVerdict[p.file] = res.Level
	if d.onResult != nil {
		d.onResult(e, res)
	}
}

// NoteResolved records that a resolution restored file to full
// consistency, resetting the remembered top-layer verdict.
func (d *Detector) NoteResolved(file id.FileID) { d.topVerdict[file] = 1 }

// HandleGossipReport is the §4.4.2 bottom-layer check on this node's
// digest: score advertised, the vector the digest carried the counts of,
// against the reporter's vector above them, and compare that bottom-layer
// level with the last top-layer verdict; if the bottom layer says things
// are worse by more than epsilon, raise the discrepancy hook so the owner
// can alert the user and roll back.
func (d *Detector) HandleGossipReport(e env.Env, rep wire.GossipReport, advertised *vv.Vector) {
	_, _, level := d.score(advertised, rep.Reporter, rep.VV)
	d.tr.Event(e, rep.TC, tracing.EvReportRecv, rep.File, rep.Reporter, int64(level*1000))
	top := d.TopVerdict(rep.File)
	if level >= top-discrepancyEps {
		return // sufficiently close (e.g. 78% vs 80%): keep silent
	}
	d.met.discrepancy.Inc()
	if d.onDiscrepancy != nil {
		d.onDiscrepancy(e, rep.File, top, level, rep)
	}
}

// Recv dispatches detection messages; it returns false for other kinds. A
// message without a vector is malformed and dropped: both handlers read it.
func (d *Detector) Recv(e env.Env, from id.NodeID, msg env.Message) bool {
	switch m := msg.(type) {
	case wire.DetectRequest:
		if m.VV != nil {
			d.HandleRequest(e, from, m)
		}
	case wire.DetectReply:
		if m.VV != nil {
			d.HandleReply(e, from, m)
		}
	default:
		return false
	}
	return true
}
