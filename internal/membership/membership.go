// Package membership is the dynamic-membership subsystem: a SWIM-style
// failure detector (Das et al.) plus a seed-based join protocol, replacing
// the fixed node list the rest of the stack was historically wired with.
//
// Every probe period the agent pings one member (round-robin over a
// shuffled ring); a missed ack triggers indirect probes through K relays;
// a member that answers nobody becomes *suspect*, and a suspect not
// refuted within the confirm window is declared *dead* and evicted from
// the view. Every assertion — alive, suspect, dead — carries the subject's
// incarnation number, and a node that hears itself suspected refutes by
// re-announcing itself at a higher incarnation. Records are piggybacked on
// probe traffic for epidemic dissemination, so membership costs no
// messages of its own beyond the probes.
//
// Joining: a node configured with only a seed sends JoinRequest; the seed
// replies with its full member view (ID → address), disseminates the
// joiner's alive record, and the joiner then bootstraps its replica store
// via snapshot state transfer (driven by the owning core node through the
// OnJoined hook) instead of replaying history through anti-entropy.
//
// The agent is protocol code in the env.Handler style: the owning node
// forwards Start, matching Recv messages, and "member."-prefixed timers,
// all on shard 0 (membership is node-global state). State sits behind a
// mutex only because drivers and tests read it from outside the event
// loop; protocol-path contention is nil.
package membership

import (
	"sort"
	"sync"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/telemetry"
	"idea/internal/wire"
)

// Status is a member's believed state.
type Status uint8

// The member states.
const (
	// Alive members answer probes (or have not yet missed one).
	Alive Status = Status(wire.MemberAlive)
	// Suspect members missed direct and indirect probes and are in the
	// confirm window; they still count as members (a suspect may refute).
	Suspect Status = Status(wire.MemberSuspect)
	// Dead members are confirmed failed (or left voluntarily) and are
	// evicted from every layer; only a higher-incarnation alive record
	// (rejoin) revives them.
	Dead Status = Status(wire.MemberDead)
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// SeedAlias is the reserved NodeID a joiner addresses its JoinRequest to
// before it has learned the seed's real identity: the live runtime
// registers the seed's dialable address under this ID. Replies arrive with
// the seed's true ID in the envelope, after which the alias is unused.
const SeedAlias = id.NodeID(-1)

const (
	// indirectProbes is K, the relays asked to probe an unresponsive
	// member.
	indirectProbes = 2
	// retransmit is how many times one record is piggybacked before it
	// stops spreading from this node.
	retransmit = 6
	// piggyback bounds the membership records attached per protocol
	// message.
	piggyback = 8
)

// Config parameterizes the agent.
type Config struct {
	// ProbeInterval is the failure-detection period; zero means 1 s.
	ProbeInterval time.Duration
	// ProbeTimeout bounds the wait for a direct (and then indirect) ack;
	// zero means 500 ms. Direct + indirect probing takes 2×ProbeTimeout
	// before a member turns suspect.
	ProbeTimeout time.Duration
	// SuspectTimeout is the confirm window: how long a suspect has to
	// refute before it is declared dead; zero means 3×ProbeInterval.
	SuspectTimeout time.Duration
	// JoinRetry is the JoinRequest retransmission period while joining;
	// zero means 2 s.
	JoinRetry time.Duration
	// Join, when non-zero, makes the agent start in joining mode: instead
	// of assuming the configured member list it sends JoinRequest to this
	// node (SeedAlias on the live runtime, a real ID under the emulator)
	// until a JoinReply installs the cluster view.
	Join id.NodeID
	// Addrs maps statically configured members to their dialable
	// addresses (live runtime only).
	Addrs map[id.NodeID]string
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout == 0 {
		c.ProbeTimeout = 500 * time.Millisecond
	}
	if c.SuspectTimeout == 0 {
		c.SuspectTimeout = 3 * c.ProbeInterval
	}
	if c.JoinRetry == 0 {
		c.JoinRetry = 2 * time.Second
	}
	return c
}

// Record is one member's current entry in the agent's view.
type Record struct {
	Node        id.NodeID
	Addr        string
	Status      Status
	Incarnation int
}

// Event is a membership change surfaced to the owning node: a member
// turned alive (joined, refuted, or its address was learned), suspect, or
// dead.
type Event struct {
	Node        id.NodeID
	Addr        string
	Status      Status
	Incarnation int
}

// EventFunc observes membership changes; it runs inside the shard-0
// serialization domain.
type EventFunc func(e env.Env, ev Event)

// JoinedFunc fires once when a joining agent receives its JoinReply; seed
// is the replying node's real ID (the snapshot-bootstrap peer).
type JoinedFunc func(e env.Env, seed id.NodeID)

// ContactFunc fires when a probe arrives from a node the agent believes
// dead (or has never met) carrying a dialable address. The live runtime
// re-registers the address so the reply — and with it the piggybacked
// record the sender needs to hear in order to refute — can be delivered;
// without it a falsely-declared-dead node could never rejoin the
// conversation, because its peers tore its transport link down.
type ContactFunc func(e env.Env, n id.NodeID, addr string)

// Timer keys the owning node routes back to the agent (all shard 0).
const (
	timerProbe    = "member.probe"
	timerAck      = "member.ack_timeout"
	timerIndirect = "member.indirect_timeout"
	timerConfirm  = "member.confirm"
	timerJoin     = "member.join_retry"
)

// probeData identifies one in-flight probe for its timeout timers.
type probeData struct {
	target id.NodeID
	seq    int64
}

// confirmData identifies one suspicion for its confirm timer.
type confirmData struct {
	target id.NodeID
	inc    int
}

type member struct {
	addr   string
	status Status
	inc    int
}

// outbound is one record in the piggyback retransmission queue.
type outbound struct {
	rec  wire.MemberRecord
	left int // remaining transmissions
}

// relayKey routes a relayed ack back to the probe origin.
type relay struct {
	origin  id.NodeID
	origSeq int64
}

type agentMetrics struct {
	alive    *telemetry.Gauge     // members currently believed alive
	suspects *telemetry.Gauge     // members currently suspect
	probeRTT *telemetry.Histogram // direct-probe ack round trip
	probes   *telemetry.Counter   // direct probes sent
	indirect *telemetry.Counter   // indirect probe fan-outs
	deaths   *telemetry.Counter   // members confirmed dead
	joins    *telemetry.Counter   // join requests served
	refutes  *telemetry.Counter   // self-refutations issued
	suspect  *telemetry.Counter   // suspect transitions observed
}

// Agent is the per-node membership participant.
type Agent struct {
	cfg  Config
	self id.NodeID

	mu      sync.Mutex
	members map[id.NodeID]*member // every known node except self
	inc     int                   // own incarnation
	addr    string                // own advertised address

	seq     int64
	pending map[int64]pendingProbe // in-flight probes by seq
	relayed map[int64]relay        // relayed probes: local seq → origin
	queue   []outbound             // piggyback retransmission queue
	ring    []id.NodeID            // shuffled probe order
	ringIdx int

	joining bool
	joined  bool
	left    bool // Leave announced: never refute our own death

	onEvent   EventFunc
	onJoined  JoinedFunc
	onContact ContactFunc
	met       agentMetrics
}

type pendingProbe struct {
	target   id.NodeID
	started  time.Time
	indirect bool // indirect round already fanned out
}

// New creates an agent for self. Unless cfg.Join is set, the configured
// peers (with addresses from cfg.Addrs) form the initial alive view.
func New(cfg Config, self id.NodeID, peers []id.NodeID) *Agent {
	cfg = cfg.withDefaults()
	a := &Agent{
		cfg:     cfg,
		self:    self,
		members: make(map[id.NodeID]*member),
		pending: make(map[int64]pendingProbe),
		relayed: make(map[int64]relay),
		joining: cfg.Join != 0,
	}
	if !a.joining {
		for _, p := range peers {
			if p == self {
				continue
			}
			a.members[p] = &member{addr: cfg.Addrs[p], status: Alive}
		}
	}
	return a
}

// AttachMetrics wires the agent to a registry; call before Start.
func (a *Agent) AttachMetrics(reg *telemetry.Registry) {
	a.met = agentMetrics{
		alive:    reg.Gauge("membership.alive"),
		suspects: reg.Gauge("membership.suspects"),
		probeRTT: reg.Histogram("membership.probe_rtt"),
		probes:   reg.Counter("membership.probes_total"),
		indirect: reg.Counter("membership.indirect_probes_total"),
		deaths:   reg.Counter("membership.deaths_total"),
		joins:    reg.Counter("membership.joins_served_total"),
		refutes:  reg.Counter("membership.refutations_total"),
		suspect:  reg.Counter("membership.suspicions_total"),
	}
	a.met.alive.Set(int64(len(a.alive()) + 1)) // + self
}

// OnEvent installs the membership-change observer; call before Start.
func (a *Agent) OnEvent(f EventFunc) { a.onEvent = f }

// OnJoined installs the join-completion observer; call before Start.
func (a *Agent) OnJoined(f JoinedFunc) { a.onJoined = f }

// OnContact installs the dead-sender-contact observer; call before Start.
func (a *Agent) OnContact(f ContactFunc) { a.onContact = f }

// SetSelfAddr records the node's advertised address once known (the live
// runtime binds its listener after the node is built); call before Start.
func (a *Agent) SetSelfAddr(addr string) {
	a.mu.Lock()
	a.addr = addr
	a.mu.Unlock()
}

// Self returns this node's ID.
func (a *Agent) Self() id.NodeID { return a.self }

// Joined reports whether a joining agent has received its member view
// (always true for statically configured agents).
func (a *Agent) Joined() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return !a.joining || a.joined
}

// Status returns a node's believed state; ok is false for unknown nodes.
// Self is always alive.
func (a *Agent) Status(n id.NodeID) (Status, bool) {
	if n == a.self {
		return Alive, true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m, ok := a.members[n]
	if !ok {
		return Dead, false
	}
	return m.status, true
}

// Members returns every known record (self included, dead tombstones
// too), sorted by node ID.
func (a *Agent) Members() []Record {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Record, 0, len(a.members)+1)
	out = append(out, Record{Node: a.self, Addr: a.addr, Status: Alive, Incarnation: a.inc})
	for n, m := range a.members {
		out = append(out, Record{Node: n, Addr: m.addr, Status: m.status, Incarnation: m.inc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// alive returns the non-dead member IDs (excluding self), sorted by
// node ID so the order is replay-stable regardless of map iteration.
// Callers hold no lock ordering concerns: it takes a.mu itself only when
// called from outside the event loop via exported accessors.
func (a *Agent) alive() []id.NodeID {
	var out []id.NodeID
	for n, m := range a.members {
		if m.status != Dead {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// gauges refreshes the alive/suspect gauges from the current view.
func (a *Agent) gauges() {
	var alive, sus int64
	for _, m := range a.members {
		switch m.status {
		case Alive:
			alive++
		case Suspect:
			sus++
		}
	}
	a.met.alive.Set(alive + 1) // + self
	a.met.suspects.Set(sus)
}

// ---- protocol driver (owning node forwards these) ----

// Start arms the probe loop and, in joining mode, fires the first
// JoinRequest.
func (a *Agent) Start(e env.Env) {
	a.mu.Lock()
	joining := a.joining
	a.mu.Unlock()
	if joining {
		a.sendJoin(e)
		e.After(a.cfg.JoinRetry, timerJoin, nil)
	}
	// Desynchronize probe loops across nodes.
	jitter := time.Duration(e.Rand().Int63n(int64(a.cfg.ProbeInterval)))
	e.After(a.cfg.ProbeInterval+jitter, timerProbe, nil)
}

func (a *Agent) sendJoin(e env.Env) {
	a.mu.Lock()
	req := wire.JoinRequest{Node: a.self, Addr: a.addr}
	target := a.cfg.Join
	a.mu.Unlock()
	e.Send(target, req)
}

// Leave announces voluntary departure: a dead record for self at the
// current incarnation, sent directly to every alive member (the node is
// shutting down, so piggyback dissemination would be too slow).
func (a *Agent) Leave(e env.Env) {
	a.mu.Lock()
	a.left = true
	msg := wire.SwimLeave{Node: a.self, Inc: a.inc}
	targets := a.alive()
	a.mu.Unlock()
	for _, n := range targets {
		e.Send(n, msg)
	}
}

// Timer handles membership timers; it returns false for keys the agent
// does not own.
func (a *Agent) Timer(e env.Env, key string, data any) bool {
	switch key {
	case timerProbe:
		a.probeTick(e)
	case timerAck:
		if pd, ok := data.(probeData); ok {
			a.ackTimeout(e, pd)
		}
	case timerIndirect:
		if pd, ok := data.(probeData); ok {
			a.indirectTimeout(e, pd)
		}
	case timerConfirm:
		if cd, ok := data.(confirmData); ok {
			a.confirm(e, cd)
		}
	case timerJoin:
		a.mu.Lock()
		again := a.joining && !a.joined
		a.mu.Unlock()
		if again {
			a.sendJoin(e)
			e.After(a.cfg.JoinRetry, timerJoin, nil)
		}
	default:
		return false
	}
	return true
}

// probeTick probes the next ring member and re-arms the loop.
func (a *Agent) probeTick(e env.Env) {
	defer e.After(a.cfg.ProbeInterval, timerProbe, nil)
	a.mu.Lock()
	// Evict relay entries whose target never acked: anything armed more
	// than 1024 sequence numbers ago is long past its probe timeout.
	for s := range a.relayed {
		if s < a.seq-1024 {
			delete(a.relayed, s)
		}
	}
	target, ok := a.nextTarget(e)
	if !ok {
		a.mu.Unlock()
		return
	}
	a.seq++
	seq := a.seq
	a.pending[seq] = pendingProbe{target: target, started: e.Now()}
	ping := wire.SwimPing{Seq: seq, Addr: a.addr, Piggyback: a.takePiggyback()}
	a.mu.Unlock()
	a.met.probes.Inc()
	e.Send(target, ping)
	e.After(a.cfg.ProbeTimeout, timerAck, probeData{target: target, seq: seq})
}

// nextTarget walks the shuffled ring, reshuffling when exhausted or when
// membership changed underneath it. A node with no alive members probes
// dead ones instead — the last-gasp mode that lets a healed full
// partition restart the refutation loop. Callers hold a.mu.
func (a *Agent) nextTarget(e env.Env) (id.NodeID, bool) {
	lastGasp := len(a.alive()) == 0
	for tries := 0; tries < 2; tries++ {
		for a.ringIdx < len(a.ring) {
			n := a.ring[a.ringIdx]
			a.ringIdx++
			if m, ok := a.members[n]; ok && (m.status != Dead || lastGasp) {
				return n, true
			}
		}
		pool := a.alive()
		if lastGasp {
			pool = pool[:0]
			for n := range a.members {
				pool = append(pool, n)
			}
		}
		if len(pool) == 0 {
			return 0, false
		}
		sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
		e.Rand().Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		a.ring, a.ringIdx = pool, 0
	}
	return 0, false
}

// ackTimeout fires ProbeTimeout after a direct probe: if unanswered, fan
// out indirect probes through K relays.
func (a *Agent) ackTimeout(e env.Env, pd probeData) {
	a.mu.Lock()
	p, ok := a.pending[pd.seq]
	if !ok || p.target != pd.target {
		a.mu.Unlock()
		return
	}
	p.indirect = true
	a.pending[pd.seq] = p
	var relays []id.NodeID
	for _, n := range a.alive() {
		if n != pd.target {
			relays = append(relays, n)
		}
	}
	e.Rand().Shuffle(len(relays), func(i, j int) { relays[i], relays[j] = relays[j], relays[i] })
	if len(relays) > indirectProbes {
		relays = relays[:indirectProbes]
	}
	req := wire.SwimPingReq{Seq: pd.seq, Target: pd.target, Piggyback: a.takePiggyback()}
	a.mu.Unlock()
	if len(relays) > 0 {
		a.met.indirect.Inc()
		for _, r := range relays {
			e.Send(r, req)
		}
	}
	e.After(a.cfg.ProbeTimeout, timerIndirect, pd)
}

// indirectTimeout fires after the indirect round: still no ack means the
// target turns suspect.
func (a *Agent) indirectTimeout(e env.Env, pd probeData) {
	a.mu.Lock()
	if _, ok := a.pending[pd.seq]; !ok {
		a.mu.Unlock()
		return
	}
	delete(a.pending, pd.seq)
	m, ok := a.members[pd.target]
	if !ok || m.status != Alive {
		a.mu.Unlock()
		return
	}
	m.status = Suspect
	inc := m.inc
	a.met.suspect.Inc()
	rec := wire.MemberRecord{Node: pd.target, Addr: m.addr, Status: wire.MemberSuspect, Inc: inc}
	a.enqueue(rec)
	a.gauges()
	ev := Event{Node: pd.target, Addr: m.addr, Status: Suspect, Incarnation: inc}
	a.mu.Unlock()
	a.emit(e, ev)
	e.After(a.cfg.SuspectTimeout, timerConfirm, confirmData{target: pd.target, inc: inc})
}

// confirm fires SuspectTimeout after a suspicion: an unrefuted suspect is
// declared dead.
func (a *Agent) confirm(e env.Env, cd confirmData) {
	a.mu.Lock()
	m, ok := a.members[cd.target]
	if !ok || m.status != Suspect || m.inc != cd.inc {
		a.mu.Unlock()
		return
	}
	m.status = Dead
	rec := wire.MemberRecord{Node: cd.target, Addr: m.addr, Status: wire.MemberDead, Inc: m.inc}
	a.enqueue(rec)
	a.gauges()
	a.met.deaths.Inc()
	ev := Event{Node: cd.target, Addr: m.addr, Status: Dead, Incarnation: m.inc}
	a.mu.Unlock()
	a.emit(e, ev)
}

// Recv dispatches membership messages; it returns false for other kinds.
func (a *Agent) Recv(e env.Env, from id.NodeID, msg env.Message) bool {
	switch m := msg.(type) {
	case wire.SwimPing:
		a.applyRecords(e, m.Piggyback)
		a.mu.Lock()
		pb := a.takePiggyback()
		// A probe from a node we believe suspect or dead is the
		// refutation loop's trigger: tell the sender what we think of it
		// so it can re-announce at a higher incarnation.
		mem, known := a.members[from]
		if known && mem.status != Alive {
			pb = append([]wire.MemberRecord{{Node: from, Addr: mem.addr, Status: wire.MemberStatus(mem.status), Inc: mem.inc}}, pb...)
		}
		contact := m.Addr != "" && (!known || mem.status == Dead)
		ack := wire.SwimAck{Seq: m.Seq, Acker: a.self, Piggyback: pb}
		a.mu.Unlock()
		if contact && a.onContact != nil {
			// The sender's transport link was torn down when it was
			// declared dead (or never existed): re-register its address
			// so this ack can actually reach it.
			a.onContact(e, from, m.Addr)
		}
		e.Send(from, ack)
	case wire.SwimAck:
		a.applyRecords(e, m.Piggyback)
		a.handleAck(e, m)
	case wire.SwimPingReq:
		a.applyRecords(e, m.Piggyback)
		a.mu.Lock()
		a.seq++
		local := a.seq
		a.relayed[local] = relay{origin: from, origSeq: m.Seq}
		ping := wire.SwimPing{Seq: local, Addr: a.addr, Piggyback: a.takePiggyback()}
		a.mu.Unlock()
		e.Send(m.Target, ping)
	case wire.SwimLeave:
		a.applyRecords(e, []wire.MemberRecord{{Node: m.Node, Status: wire.MemberDead, Inc: m.Inc}})
	case wire.JoinRequest:
		a.handleJoinRequest(e, m)
	case wire.JoinReply:
		a.handleJoinReply(e, from, m)
	default:
		return false
	}
	return true
}

// handleAck completes a direct or relayed probe.
func (a *Agent) handleAck(e env.Env, m wire.SwimAck) {
	a.mu.Lock()
	if r, ok := a.relayed[m.Seq]; ok {
		delete(a.relayed, m.Seq)
		fwd := wire.SwimAck{Seq: r.origSeq, Acker: m.Acker, Piggyback: a.takePiggyback()}
		origin := r.origin
		a.mu.Unlock()
		e.Send(origin, fwd)
		return
	}
	p, ok := a.pending[m.Seq]
	if !ok {
		a.mu.Unlock()
		return
	}
	delete(a.pending, m.Seq)
	rtt := e.Now().Sub(p.started)
	// An ack proves the prober→target path (possibly via a relay): a
	// suspect — or a dead member reached by a last-gasp probe — that
	// answers is revived locally even before its own higher-incarnation
	// alive record arrives.
	var ev *Event
	if mem, known := a.members[p.target]; known && mem.status != Alive {
		mem.status = Alive
		a.enqueue(wire.MemberRecord{Node: p.target, Addr: mem.addr, Status: wire.MemberAlive, Inc: mem.inc})
		a.gauges()
		ev = &Event{Node: p.target, Addr: mem.addr, Status: Alive, Incarnation: mem.inc}
	}
	a.mu.Unlock()
	if !p.indirect {
		a.met.probeRTT.ObserveDuration(rtt)
	}
	if ev != nil {
		a.emit(e, *ev)
	}
}

// handleJoinRequest serves a joiner: revive/insert it one incarnation
// above anything known (a restarted node resets its incarnation to zero,
// so the bump is what lets it displace its own tombstone), reply with the
// full view, and disseminate the joiner's record.
func (a *Agent) handleJoinRequest(e env.Env, m wire.JoinRequest) {
	if m.Node == a.self {
		return
	}
	a.mu.Lock()
	inc := 1
	if cur, ok := a.members[m.Node]; ok {
		inc = cur.inc + 1
	}
	rec := wire.MemberRecord{Node: m.Node, Addr: m.Addr, Status: wire.MemberAlive, Inc: inc}
	a.mu.Unlock()
	a.met.joins.Inc()
	a.applyRecords(e, []wire.MemberRecord{rec})

	a.mu.Lock()
	reply := wire.JoinReply{Members: a.recordsLocked()}
	a.mu.Unlock()
	e.Send(m.Node, reply)
}

// recordsLocked snapshots the view as wire records (self first). Callers
// hold a.mu.
func (a *Agent) recordsLocked() []wire.MemberRecord {
	out := make([]wire.MemberRecord, 0, len(a.members)+1)
	out = append(out, wire.MemberRecord{Node: a.self, Addr: a.addr, Status: wire.MemberAlive, Inc: a.inc})
	ids := make([]id.NodeID, 0, len(a.members))
	for n := range a.members {
		ids = append(ids, n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, n := range ids {
		m := a.members[n]
		out = append(out, wire.MemberRecord{Node: n, Addr: m.addr, Status: wire.MemberStatus(m.status), Inc: m.inc})
	}
	return out
}

// handleJoinReply installs the seed's view and fires the joined hook.
func (a *Agent) handleJoinReply(e env.Env, from id.NodeID, m wire.JoinReply) {
	a.mu.Lock()
	if !a.joining || a.joined {
		a.mu.Unlock()
		return
	}
	a.joined = true
	a.mu.Unlock()
	// Install the view first: it carries our own cluster-assigned
	// incarnation (the join bump), which the self-announcement below
	// must not undercut.
	a.applyRecords(e, m.Members)
	a.mu.Lock()
	// Announce self so the piggyback flood reaches nodes the seed has
	// not gossiped to yet.
	a.enqueue(wire.MemberRecord{Node: a.self, Addr: a.addr, Status: wire.MemberAlive, Inc: a.inc})
	a.mu.Unlock()
	if a.onJoined != nil {
		a.onJoined(e, from)
	}
}

// ---- record dissemination and merge ----

// enqueue schedules a record for piggyback retransmission, replacing any
// queued record about the same node (the newer assertion supersedes it).
// Callers hold a.mu.
func (a *Agent) enqueue(rec wire.MemberRecord) {
	for i := range a.queue {
		if a.queue[i].rec.Node == rec.Node {
			a.queue[i] = outbound{rec: rec, left: retransmit}
			return
		}
	}
	a.queue = append(a.queue, outbound{rec: rec, left: retransmit})
}

// takePiggyback drains up to piggyback records from the retransmission
// queue (round-robin, decrementing budgets). Callers hold a.mu.
func (a *Agent) takePiggyback() []wire.MemberRecord {
	if len(a.queue) == 0 {
		return nil
	}
	n := min(piggyback, len(a.queue))
	out := make([]wire.MemberRecord, 0, n)
	kept := a.queue[:0]
	for i, ob := range a.queue {
		if i < n {
			out = append(out, ob.rec)
			ob.left--
		}
		if ob.left > 0 {
			kept = append(kept, ob)
		}
	}
	// Rotate so later queue entries get piggyback slots next time.
	a.queue = kept
	if len(a.queue) > 1 && n < len(a.queue) {
		rot := append([]outbound(nil), a.queue[n:]...)
		a.queue = append(rot, a.queue[:n]...)
	}
	return out
}

// applyRecords merges received assertions into the view, firing events
// and re-disseminating anything that changed local belief.
func (a *Agent) applyRecords(e env.Env, recs []wire.MemberRecord) {
	var events []Event
	a.mu.Lock()
	for _, rec := range recs {
		if rec.Node == a.self {
			if rec.Status == wire.MemberAlive {
				// Adopt a cluster-assigned incarnation (the join bump
				// that displaced our tombstone): our own future
				// assertions — Leave above all — must carry at least
				// the incarnation the cluster believes us at.
				if rec.Inc > a.inc {
					a.inc = rec.Inc
				}
				continue
			}
			// Refute suspicion/death of self: jump above the asserted
			// incarnation and re-announce. A node that announced its own
			// departure stays dead.
			if rec.Inc >= a.inc && !a.left {
				a.inc = rec.Inc + 1
				a.enqueue(wire.MemberRecord{Node: a.self, Addr: a.addr, Status: wire.MemberAlive, Inc: a.inc})
				a.met.refutes.Inc()
			}
			continue
		}
		if ev, changed := a.merge(rec); changed {
			events = append(events, ev)
		}
	}
	if len(events) > 0 {
		a.gauges()
	}
	a.mu.Unlock()
	for _, ev := range events {
		a.emit(e, ev)
	}
	// Suspicions against others learned by piggyback also need confirm
	// timers here, or a suspect only dies on the node that first probed
	// it. Arm one per freshly learned suspicion.
	for _, ev := range events {
		if ev.Status == Suspect {
			a.met.suspect.Inc()
			e.After(a.cfg.SuspectTimeout, timerConfirm, confirmData{target: ev.Node, inc: ev.Incarnation})
		}
	}
}

// merge applies SWIM precedence for one record about another node.
// Callers hold a.mu. The returned event is valid when changed is true.
func (a *Agent) merge(rec wire.MemberRecord) (Event, bool) {
	cur, known := a.members[rec.Node]
	if !known {
		if rec.Status == wire.MemberDead {
			// Tombstone for a node never seen: remember it silently so a
			// stale alive record cannot resurrect it, but fire no event.
			a.members[rec.Node] = &member{addr: rec.Addr, status: Dead, inc: rec.Inc}
			return Event{}, false
		}
		a.members[rec.Node] = &member{addr: rec.Addr, status: Status(rec.Status), inc: rec.Inc}
		a.enqueue(rec)
		return Event{Node: rec.Node, Addr: rec.Addr, Status: Status(rec.Status), Incarnation: rec.Inc}, true
	}
	wins := false
	switch Status(rec.Status) {
	case Alive:
		wins = rec.Inc > cur.inc || (rec.Inc == cur.inc && cur.status == Alive && rec.Addr != "" && cur.addr == "")
	case Suspect:
		wins = (cur.status == Alive && rec.Inc >= cur.inc) || rec.Inc > cur.inc
	case Dead:
		wins = cur.status != Dead && rec.Inc >= cur.inc
	}
	if !wins {
		return Event{}, false
	}
	changed := cur.status != Status(rec.Status) || (rec.Addr != "" && rec.Addr != cur.addr)
	cur.inc = rec.Inc
	prev := cur.status
	cur.status = Status(rec.Status)
	if rec.Addr != "" {
		cur.addr = rec.Addr
	}
	if changed {
		a.enqueue(rec)
	}
	if cur.status == Dead && prev != Dead {
		a.met.deaths.Inc()
	}
	if !changed {
		return Event{}, false
	}
	return Event{Node: rec.Node, Addr: cur.addr, Status: cur.status, Incarnation: cur.inc}, true
}

func (a *Agent) emit(e env.Env, ev Event) {
	if a.onEvent != nil {
		a.onEvent(e, ev)
	}
}
