// Package core is the IDEA middleware itself: it composes the two-layer
// infrastructure (RanSub temperature overlay + gossip bottom layer), the
// inconsistency detection framework, the quantification of consistency
// levels, and the resolution machinery into the protocol workflow of
// Fig. 3, and drives them with the adaptive consistency controllers of
// §4.6 (on-demand, hint-based, fully automatic). The developer-facing
// APIs of Table 1 live in api.go; the end-user interaction surface
// (complaints, demands, weight changes) is part of the same Node.
//
// # Execution model
//
// A Node implements env.Handler and additionally env.Sharded: its state
// is partitioned into Options.Shards independent serialization domains
// keyed by FileID hash. Each shard owns a full per-file protocol stack —
// detector, resolver, gossip agent, and controller states — so protocol
// code stays lock-free exactly as under the classic one-loop-per-node
// model, while a sharded runtime (transport, or simnet's deterministic
// logical shards) processes different files' work in parallel. Node-global
// work — the RanSub overlay, membership, the replica-store map, telemetry
// — is shared across shards behind its own synchronization; cross-file
// reads (store.Files, metrics snapshots) merge shard-local state without
// stopping the world. With Shards == 1 (the default) behaviour is
// byte-identical to the historical single-loop node.
package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/gossip"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/membership"
	"idea/internal/overlay"
	"idea/internal/quantify"
	"idea/internal/ransub"
	"idea/internal/resolve"
	"idea/internal/store"
	"idea/internal/telemetry"
	"idea/internal/tracing"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Mode is the per-file adaptive scheme (§4.6).
type Mode int

// The three application types IDEA caters to.
const (
	// OnDemand: users explicitly request resolution when dissatisfied;
	// IDEA learns the acceptable level from each complaint (L1+Δ) and
	// keeps the file above it afterwards.
	OnDemand Mode = iota + 1
	// HintBased: users pre-declare a tolerance hint; IDEA triggers
	// active resolution whenever the detected level drops below it.
	HintBased
	// FullyAutomatic: no user in the loop; background resolution runs
	// at a frequency adapted to system capacity within learned bounds
	// (the airline-booking scheme of §5.2).
	FullyAutomatic
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case OnDemand:
		return "on-demand"
	case HintBased:
		return "hint-based"
	case FullyAutomatic:
		return "automatic"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configures a Node.
type Options struct {
	// Membership pins the two-layer view; nil derives it dynamically
	// from the RanSub agent (requires All to list the whole system).
	Membership overlay.Membership
	// All is the full node list, required when Membership is nil.
	All []id.NodeID
	// Detect, Resolve, Gossip, Ransub tune the subsystems.
	Detect  detect.Config
	Resolve resolve.Config
	Gossip  gossip.Config
	Ransub  ransub.Config
	// Shards is the number of per-file serialization domains the node's
	// state is partitioned into (see the package comment). Zero means 1
	// — the classic single-loop node; NumShardsAuto means one per
	// available CPU. Values above 1 only buy parallelism under a
	// shard-aware runtime, but are always correct.
	Shards int
	// DisableGossip turns off the bottom-layer sweep (top-layer-only
	// ablation; also how the paper ran its evaluation, §6).
	DisableGossip bool
	// DisableRansub turns off dynamic overlay maintenance (use with a
	// static Membership).
	DisableRansub bool
	// DisableRollback turns off the §4.4.2 rollback reaction to
	// bottom-layer discrepancies (alerts still fire).
	DisableRollback bool
	// CompactStableLogs prunes replica logs below the gossip-learned
	// stability frontier, bounding per-file memory by divergence instead
	// of total history. Off by default: reads serve the live log, so
	// applications that reconstruct file content by replaying it (the
	// bundled white board, booking, and p2pfs apps do) would lose
	// content to pruning. Enable it when the log is consumed as a
	// change feed or content snapshots live with the application —
	// e.g. sustained loadgen deployments.
	CompactStableLogs bool
	// Swim enables the SWIM-style dynamic-membership subsystem: the
	// bottom layer becomes a live view fed by probe-based failure
	// detection (dead nodes leave every layer, joiners enter at
	// runtime), and a node whose Swim.Join names a seed bootstraps its
	// member list and replica store from it with zero static
	// configuration. Nil (the default) keeps the historical fixed
	// membership.
	Swim *membership.Config
	// Journal attaches a durability journal to the replica store: on
	// boot the node replays the journal (crash recovery), then
	// every applied update and rollback is journaled via the store's
	// hooks and fsynced every 500 ms by a periodic sweep (walSync). Nil
	// (the default) keeps the store memory-only. The node takes ownership
	// of the journal's lifecycle hooks; configure group commit
	// (WAL.SetGroupCommit) before passing it in.
	Journal *store.WAL
	// Tracing enables the causal tracing layer: one write in every
	// Tracing.SampleEvery mints a trace context that is piggybacked
	// through detection, gossip, and resolution, with every hop recorded
	// in the node's span journal (see internal/tracing and the /trace
	// admin endpoint). The zero value disables tracing entirely.
	Tracing tracing.Config
	// Health tunes the per-node health engine (internal/health): a
	// rule-based anomaly evaluation that ticks on the env clock — fully
	// deterministic under simnet — plus the always-on flight recorder of
	// recent protocol events. The zero value enables the engine with
	// package defaults; set Health.Disable to opt out of evaluation (the
	// flight recorder stays on regardless, it is the crash context).
	Health health.Config
}

// NumShardsAuto selects one shard per available CPU (GOMAXPROCS).
const NumShardsAuto = -1

// hintDelta is Δ, the bump applied when a user complains (§4.6).
const hintDelta = 0.02

// walSync is the journal's fsync-sweep period. Updates newer than the last
// sweep ride the group-commit buffer/page cache and can be lost to a crash
// — recovery treats them as a torn tail and anti-entropy re-ships them.
const walSync = 500 * time.Millisecond

// fileState is the controller state IDEA keeps per shared file.
type fileState struct {
	// rep is the file's replica once the shard has opened it (see
	// replica); nil until then.
	rep       *store.Replica
	mode      Mode
	hint      float64 // L1, the user's pre-declared tolerance (§4.6)
	learned   float64 // learned desired level from complaints (L1 + Δ…)
	last      float64 // most recent detected level
	cpToken   int64   // live checkpoint for rollback
	hasCP     bool
	auto      *AutoController
	autoEvery time.Duration
}

// Alert describes a bottom-layer discrepancy surfaced to the user
// (§4.4.2: "IDEA alerts the user about the discrepancy").
type Alert struct {
	File       id.FileID
	Top        float64
	Bottom     float64
	Reporter   id.NodeID
	RolledBack bool
	Undone     int // updates undone by the rollback
}

// Callback signatures for the observation hooks (see SetOnLevel etc.).
type (
	// LevelFunc observes every completed detection (file, level).
	LevelFunc func(e env.Env, file id.FileID, res detect.Result)
	// AlertFunc observes bottom-layer discrepancy alerts.
	AlertFunc func(e env.Env, a Alert)
	// ResolvedFunc observes every adoption of a consistent image.
	ResolvedFunc func(e env.Env, file id.FileID, winner id.NodeID)
	// OutcomeFunc observes initiator-side resolution outcomes.
	OutcomeFunc = resolve.OutcomeFunc
)

// hook is an atomically swappable callback slot: hooks are invoked from
// every shard but may be (re)installed at any time — the load generator
// chains onto a live node's hooks mid-run.
type hook[T any] struct{ p atomic.Pointer[T] }

func (h *hook[T]) swap(f T) (prev T) {
	if old := h.p.Swap(&f); old != nil {
		prev = *old
	}
	return prev
}

func (h *hook[T]) get() (f T) {
	if p := h.p.Load(); p != nil {
		f = *p
	}
	return f
}

// coreShard is one serialization domain of a Node: the per-file protocol
// stack plus the controller states of the files hashing into it. All of
// its fields are only ever touched by callbacks routed to this shard, so
// none of them need locks.
type coreShard struct {
	n     *Node
	idx   int
	det   *detect.Detector
	res   *resolve.Resolver
	gos   *gossip.Agent
	files map[id.FileID]*fileState
}

// Node is one IDEA middleware instance. It implements env.Handler (and
// env.Sharded) and is runnable unchanged under simnet (emulation) or
// transport (live TCP).
type Node struct {
	self    id.NodeID
	opts    Options
	st      *store.Store
	quant   *quantify.Quantifier
	mem     overlay.Membership
	ran     *ransub.Agent
	reg     *telemetry.Registry
	tr      *tracing.Tracer
	met     coreMetrics
	nshards int
	shards  []*coreShard

	// Dynamic membership (nil/zero without Options.Swim).
	swim *membership.Agent
	view *overlay.View
	join joinState

	// Durability (nil/zero without Options.Journal).
	wal    *store.WAL
	walErr error // logs crash recovery skipped, logged once at Start

	// Health engine + flight recorder (never nil; see Options.Health), and
	// the registry handles its tick reads (shard 0 only).
	health *health.Engine
	probe  *health.ProbeReader

	onLevel    hook[LevelFunc]
	onAlert    hook[AlertFunc]
	onResolved hook[ResolvedFunc]
	onOutcome  hook[OutcomeFunc]
	onMember   hook[MemberFunc]
	onJoined   hook[membership.JoinedFunc]
}

// coreMetrics are the node-level telemetry handles.
type coreMetrics struct {
	writes        *telemetry.Counter // local writes issued
	reads         *telemetry.Counter // local reads served
	alerts        *telemetry.Counter // bottom-layer discrepancy alerts
	rollbacks     *telemetry.Counter // §4.4.2 rollbacks executed
	complaints    *telemetry.Counter // end-user complaints
	resolved      *telemetry.Counter // consistent-image adoptions observed
	joinCatchup   *telemetry.Gauge   // snapshot-bootstrap duration (ms)
	snapshotBytes *telemetry.Counter // snapshot-transfer bytes served
}

// keyShardStart fans per-shard boot work out of Handler.Start (which runs
// on shard 0) into each shard's own domain via zero-delay timers.
const keyShardStart = "core.shard.start"

// keyWalSync is the periodic journal fsync sweep (shard 0; the WAL
// serializes per-file against concurrent appends itself).
const keyWalSync = "core.wal.sync"

// keyHealthTick is the health engine's evaluation cadence (unkeyed →
// shard 0, the node-global domain — the engine reads cross-shard
// aggregates, never per-file controller state).
const keyHealthTick = "core.health.tick"

// NewNode builds an IDEA node.
func NewNode(self id.NodeID, opts Options) *Node {
	nsh := opts.Shards
	if nsh == NumShardsAuto {
		nsh = runtime.GOMAXPROCS(0)
	}
	if nsh < 1 {
		nsh = 1
	}
	n := &Node{
		self:    self,
		opts:    opts,
		st:      store.New(self),
		reg:     telemetry.NewRegistry(),
		quant:   quantify.Default(),
		nshards: nsh,
	}
	n.tr = tracing.New(self, opts.Tracing)
	n.met = coreMetrics{
		writes:     n.reg.Counter("core.writes_total"),
		reads:      n.reg.Counter("core.reads_total"),
		alerts:     n.reg.Counter("core.alerts_total"),
		rollbacks:  n.reg.Counter("core.rollbacks_total"),
		complaints: n.reg.Counter("core.complaints_total"),
		resolved:   n.reg.Counter("core.resolved_total"),
	}
	n.st.AttachMetrics(n.reg)
	if opts.Journal != nil {
		n.wal = opts.Journal
		n.wal.AttachMetrics(n.reg)
		n.walErr = n.wal.Replay(n.st)
	}
	// With dynamic membership the initial node list always contains self
	// (a joiner starts knowing nobody else).
	swimAll := opts.All
	if opts.Swim != nil {
		swimAll = append([]id.NodeID(nil), opts.All...)
		if !contains(swimAll, self) {
			swimAll = append(swimAll, self)
		}
	}
	if !opts.DisableRansub {
		all := swimAll
		if all == nil && opts.Membership != nil {
			all = opts.Membership.All()
		}
		n.ran = ransub.New(opts.Ransub, self, all)
	}
	if opts.Swim != nil {
		// The live View wraps the static pins (or the RanSub-derived
		// overlay) for top-layer beliefs and owns the bottom layer.
		var base overlay.Membership = opts.Membership
		if base == nil && n.ran != nil {
			base = overlay.NewDynamic(swimAll, n.ran)
		}
		n.mem = n.setupMembership(opts, swimAll, base)
	} else {
		n.mem = opts.Membership
		if n.mem == nil {
			if n.ran == nil {
				panic("core: need Membership or RanSub")
			}
			n.mem = overlay.NewDynamic(opts.All, n.ran)
		}
	}
	// One full per-file protocol stack per shard. The stacks share the
	// store, membership, quantifier, and metric handles (the registry
	// dedupes by name, so per-shard subsystems aggregate into the same
	// node-level metrics); everything keyed by file lives in exactly one
	// stack, selected by ShardOfFile.
	n.shards = make([]*coreShard, nsh)
	for i := 0; i < nsh; i++ {
		sh := &coreShard{n: n, idx: i, files: make(map[id.FileID]*fileState)}
		sh.det = detect.New(opts.Detect, self, n.mem, n.st, n.quant)
		sh.det.AttachMetrics(n.reg)
		sh.det.SetTracer(n.tr)
		sh.det.OnResult(sh.handleDetectResult)
		sh.det.OnDiscrepancy(sh.handleDiscrepancy)
		sh.res = resolve.New(opts.Resolve, self, n.mem, n.st)
		sh.res.AttachMetrics(n.reg)
		sh.res.SetTracer(n.tr)
		sh.res.OnApplied(sh.handleApplied)
		sh.res.OnOutcome(func(e env.Env, o resolve.Outcome) {
			if f := n.onOutcome.get(); f != nil {
				f(e, o)
			}
		})
		if !opts.DisableGossip {
			peers := overlay.BottomPeers(n.mem, self)
			sh.gos = gossip.New(opts.Gossip, self, peers, gossipState{sh}, sh.det.HandleGossipReport)
			if opts.Swim != nil {
				// The fan-out follows the live view: dead nodes drop out
				// of every shard's sweep at once, joiners enter it.
				sh.gos.SetPeerSource(func() []id.NodeID {
					return overlay.BottomPeers(n.mem, self)
				})
			}
			sh.gos.SetShard(i)
			sh.gos.AttachMetrics(n.reg)
			if n.tr != nil {
				sh.gos.SetTracer(n.tr, func(f id.FileID) tracing.Context {
					if r := n.st.Peek(f); r != nil {
						return r.LastTrace()
					}
					return tracing.Context{}
				})
			}
			if opts.CompactStableLogs {
				// Bottom-layer digests double as a stability signal: once
				// every peer is known to hold (and can no longer roll back
				// below) a writer's prefix, the replica log below that
				// frontier is compacted away — long-running nodes keep
				// per-file state bounded by divergence, not total history.
				sh.gos.OnFrontier(func(_ env.Env, f id.FileID, stable map[id.NodeID]int) {
					if r := n.st.Peek(f); r != nil {
						r.CompactBelow(stable)
					}
				})
			}
		}
		n.shards[i] = sh
	}
	// Built last so metric handles the engine resolves by name — most
	// importantly the store.wal_fsync_ms histogram's bucket bounds — are
	// already registered with their canonical shapes.
	n.health = health.NewEngine(self, opts.Health, n.reg)
	n.probe = health.NewProbeReader(n.reg)
	return n
}

// gossipState adapts the store to gossip.State without creating replicas.
// Each shard's agent sweeps only the files of its own domain, so digest
// fan-out parallelizes across shards and frontier learning merges
// per-file without coordination.
type gossipState struct{ sh *coreShard }

func (g gossipState) LocalVector(f id.FileID) *vv.Vector {
	if r := g.sh.n.st.Peek(f); r != nil {
		return r.LiveVector()
	}
	return nil
}

func (g gossipState) ActiveFiles() []id.FileID {
	n := g.sh.n
	if n.nshards == 1 {
		return n.st.Files()
	}
	return n.st.FilesFiltered(func(f id.FileID) bool {
		return n.ShardOfFile(f) == g.sh.idx
	})
}

// StableVector implements gossip.StableState: digests advertise the
// replica's rollback floor, so no peer compacts an update this node could
// still re-need after a §4.4.2 rollback.
func (g gossipState) StableVector(f id.FileID) *vv.Vector {
	if r := g.sh.n.st.Peek(f); r != nil {
		return r.StableVector()
	}
	return nil
}

// ID returns the node's identifier.
func (n *Node) ID() id.NodeID { return n.self }

// Store exposes the underlying replica store (the distributed-FS
// substrate).
func (n *Node) Store() *store.Store { return n.st }

// Detector exposes shard 0's detection framework — with the default
// single shard, the node's only one. Multi-shard callers use the
// aggregated telemetry registry instead.
func (n *Node) Detector() *detect.Detector { return n.shards[0].det }

// Resolver exposes shard 0's resolution machinery — with the default
// single shard, the node's only one.
func (n *Node) Resolver() *resolve.Resolver { return n.shards[0].res }

// Membership exposes the two-layer view.
func (n *Node) Membership() overlay.Membership { return n.mem }

// Quantifier exposes the Formula 1 scorer.
func (n *Node) Quantifier() *quantify.Quantifier { return n.quant }

// Metrics exposes the node's telemetry registry (never nil): every
// subsystem — detection, resolution, gossip, the replica store, and the
// live transport when one is attached — records into it.
func (n *Node) Metrics() *telemetry.Registry { return n.reg }

// Tracer exposes the node's causal tracer; nil when Options.Tracing is
// zero (every tracing call site is nil-safe).
func (n *Node) Tracer() *tracing.Tracer { return n.tr }

// Health exposes the node's health engine (never nil; Enabled() reports
// whether evaluation ticks run).
func (n *Node) Health() *health.Engine { return n.health }

// Flight exposes the node's always-on flight recorder — the bounded ring
// of recent protocol events dumped on anomalies, /debug/flight, and
// SIGQUIT. Never nil.
func (n *Node) Flight() *health.Recorder { return n.health.Recorder() }

// Journal exposes the node's durability journal; nil when the node runs
// memory-only (no Options.Journal). Fault harnesses use it to inject
// torn-log and slow-disk conditions into a running node.
func (n *Node) Journal() *store.WAL { return n.wal }

// AlertsTotal returns how many bottom-layer discrepancy alerts fired.
func (n *Node) AlertsTotal() int { return int(n.met.alerts.Value()) }

// RollbacksTotal returns how many §4.4.2 rollbacks were executed.
func (n *Node) RollbacksTotal() int { return int(n.met.rollbacks.Value()) }

// SetOnLevel installs the detection observer, returning the previous one
// (chain to it to observe without stealing). Safe to call on a live node.
func (n *Node) SetOnLevel(f LevelFunc) LevelFunc { return n.onLevel.swap(f) }

// SetOnAlert installs the discrepancy-alert observer, returning the
// previous one.
func (n *Node) SetOnAlert(f AlertFunc) AlertFunc { return n.onAlert.swap(f) }

// SetOnResolved installs the image-adoption observer, returning the
// previous one.
func (n *Node) SetOnResolved(f ResolvedFunc) ResolvedFunc { return n.onResolved.swap(f) }

// SetOnOutcome installs the initiator-side resolution observer, returning
// the previous one.
func (n *Node) SetOnOutcome(f OutcomeFunc) OutcomeFunc { return n.onOutcome.swap(f) }

// ---- env.Sharded ----

// Shards implements env.Sharded: the number of serialization domains the
// node's state is partitioned into.
func (n *Node) Shards() int { return n.nshards }

// ShardOfFile implements env.Sharded.
func (n *Node) ShardOfFile(f id.FileID) int { return env.ShardOf(f, n.nshards) }

// ShardOfMessage implements env.Sharded: protocol messages route by the
// file they concern; node-global traffic (RanSub waves) runs on shard 0.
func (n *Node) ShardOfMessage(msg env.Message) int {
	if n.nshards == 1 {
		return 0
	}
	if f, ok := wire.RoutingFile(msg); ok {
		return n.ShardOfFile(f)
	}
	return 0
}

// ShardOfTimer implements env.Sharded: timers route by the file (or shard
// label) their key/data carries; unkeyed timers run on shard 0.
func (n *Node) ShardOfTimer(key string, data any) int {
	if n.nshards == 1 {
		return 0
	}
	if f, ok := detect.TimerFile(key, data); ok {
		return n.shardOfRouted(f)
	}
	if f, ok := resolve.TimerFile(key, data); ok {
		return n.shardOfRouted(f)
	}
	if s, ok := gossip.TimerShard(key, data); ok {
		return env.ClampShard(s, n.nshards)
	}
	if f, ok := strings.CutPrefix(key, "core.auto:"); ok {
		return n.ShardOfFile(id.FileID(f))
	}
	if key == keyShardStart {
		if i, ok := data.(int); ok && i >= 0 && i < n.nshards {
			return i
		}
	}
	if key == keyMemberPrune {
		if pd, ok := data.(pruneShard); ok {
			return env.ClampShard(pd.shard, n.nshards)
		}
	}
	return 0
}

func (n *Node) shardOf(f id.FileID) *coreShard { return n.shards[n.ShardOfFile(f)] }

// shardOfRouted maps a TimerFile/RoutingFile result to a shard index; the
// empty FileID is the helpers' "owned but unkeyed" sentinel and must land
// on shard 0 (the node-global domain), not on hash("")'s shard.
func (n *Node) shardOfRouted(f id.FileID) int {
	if f == "" {
		return 0
	}
	return n.ShardOfFile(f)
}

func (sh *coreShard) file(f id.FileID) *fileState {
	fs, ok := sh.files[f]
	if !ok {
		fs = &fileState{mode: OnDemand, last: 1}
		sh.files[f] = fs
	}
	return fs
}

// replica returns the file's replica, opening it on first use. The store
// never replaces or drops a replica, so the one kept here stays current
// and later calls skip the store's map.
func (fs *fileState) replica(st *store.Store, f id.FileID) *store.Replica {
	if fs.rep == nil {
		fs.rep = st.Open(f)
	}
	return fs.rep
}

// desired is the level IDEA keeps the file above: the maximum of the user
// hint and any learned level.
func (fs *fileState) desired() float64 {
	if fs.learned > fs.hint {
		return fs.learned
	}
	return fs.hint
}

// file returns the controller state of f in its owning shard. Callers
// outside message handlers must already be executing in f's domain (see
// the env package comment).
func (n *Node) file(f id.FileID) *fileState { return n.shardOf(f).file(f) }

// ---- env.Handler ----

// Start implements env.Handler; it runs on shard 0 and fans per-shard
// boot work (gossip round timers) out to each shard's own domain.
func (n *Node) Start(e env.Env) {
	if n.swim != nil {
		n.swim.Start(e)
	}
	if n.ran != nil {
		n.ran.Start(e)
	}
	n.shards[0].start(e)
	for i := 1; i < n.nshards; i++ {
		e.After(0, keyShardStart, i)
	}
	if n.wal != nil {
		if n.walErr != nil {
			e.Logf("core: journal replay: %v", n.walErr)
			n.walErr = nil
		}
		e.After(walSync, keyWalSync, nil)
	}
	n.health.Recorder().Record(e.Now(), health.FKNodeStart, "", n.self, int64(n.nshards), "")
	if n.health.Enabled() {
		e.After(n.health.Interval(), keyHealthTick, nil)
	}
}

func (sh *coreShard) start(e env.Env) {
	if sh.gos != nil {
		sh.gos.Start(e)
	}
}

// Recv implements env.Handler, dispatching to the owning shard's
// subsystems. The runtime already routed the callback to the right
// shard; recomputing the shard here is what keeps the node correct
// under non-sharded runtimes too (everything then runs on one loop).
func (n *Node) Recv(e env.Env, from id.NodeID, msg env.Message) {
	sh := n.shards[n.ShardOfMessage(msg)]
	if sh.det.Recv(e, from, msg) {
		return
	}
	if sh.res.Recv(e, from, msg) {
		return
	}
	if sh.gos != nil && sh.gos.Recv(e, from, msg) {
		return
	}
	if n.ran != nil && n.ran.Recv(e, from, msg) {
		return
	}
	if n.recvMembership(e, from, msg) {
		return
	}
	e.Logf("core: unhandled message %s from %v", msg.Kind(), from)
}

// Timer implements env.Handler, dispatching by key prefix to the owning
// shard's subsystem.
func (n *Node) Timer(e env.Env, key string, data any) {
	switch {
	case key == keyShardStart:
		if i, ok := data.(int); ok && i >= 0 && i < n.nshards {
			n.shards[i].start(e)
		}
	case strings.HasPrefix(key, "detect."):
		n.shards[n.ShardOfTimer(key, data)].det.Timer(e, key, data)
	case strings.HasPrefix(key, "resolve."):
		n.shards[n.ShardOfTimer(key, data)].res.Timer(e, key, data)
	case strings.HasPrefix(key, "gossip."):
		if sh := n.shards[n.ShardOfTimer(key, data)]; sh.gos != nil {
			sh.gos.Timer(e, key, data)
		}
	case strings.HasPrefix(key, "ransub."):
		if n.ran != nil {
			n.ran.Timer(e, key, data)
		}
	case strings.HasPrefix(key, "member."):
		if n.swim != nil {
			n.swim.Timer(e, key, data)
		}
	case key == keyMemberPrune:
		if pd, ok := data.(pruneShard); ok {
			n.pruneDeparted(pd.shard, pd.writer)
		}
	case key == keyJoinRetry:
		n.joinRetry(e)
	case key == keyWalSync:
		if n.wal != nil {
			if err := n.wal.SyncAll(); err != nil {
				e.Logf("core: wal sync: %v", err)
				n.health.Recorder().Record(e.Now(), health.FKWALError, "", n.self, 0, err.Error())
			}
			e.After(walSync, keyWalSync, nil)
		}
	case key == keyHealthTick:
		n.healthTick(e)
	case strings.HasPrefix(key, "core.auto:"):
		n.autoTick(e, id.FileID(strings.TrimPrefix(key, "core.auto:")))
	default:
		e.Logf("core: unhandled timer %q", key)
	}
}

// healthTick runs one health-engine evaluation on shard 0: it assembles
// the probe (the few counters and gauges the detectors read, through
// handles resolved once, plus the signals a registry can't carry — the
// WAL's sticky error and the join-bootstrap phase) and re-arms. The tick
// sends no messages and draws no randomness, so seeded simnet runs stay
// byte-for-byte reproducible with health enabled.
func (n *Node) healthTick(e env.Env) {
	if !n.health.Enabled() {
		return
	}
	p := n.probe.Read()
	p.Join = n.joinStatus(e.Now())
	if n.wal != nil {
		if err := n.wal.Err(); err != nil {
			p.WALErr = err.Error()
		}
	}
	for _, ev := range n.health.Tick(e.Now(), p) {
		e.Logf("core: health %s", ev)
	}
	e.After(n.health.Interval(), keyHealthTick, nil)
}

// ---- Application write/read surface (Fig. 3 triggers) ----

// Write applies a local write and triggers the IDEA protocol: the update
// bumps the file's temperature and detection runs against the top layer.
// It returns the update. Like every per-file API it must execute in the
// file's serialization domain — drivers on a sharded runtime use
// InjectFile/CallAtFile rather than the shard-0 Inject.
func (n *Node) Write(e env.Env, file id.FileID, op string, data []byte, meta float64) wire.Update {
	u, _ := n.WriteTracked(e, file, op, data, meta)
	return u
}

// WriteTracked is Write plus the detection probe token, letting drivers
// (e.g. the load generator) correlate the asynchronous verdict delivered
// via the OnLevel hook with this specific write. Tokens are unique per
// (file's shard); correlate by (file, token) on multi-shard nodes.
func (n *Node) WriteTracked(e env.Env, file id.FileID, op string, data []byte, meta float64) (wire.Update, int64) {
	// Sampling decision first: a sampled write mints the trace the whole
	// lifecycle joins (inject → log append → detect → gossip → resolve).
	tc := n.tr.StartWrite(e, file, 0)
	sh := n.shardOf(file)
	u := sh.file(file).replica(n.st, file).WriteLocalTraced(e.Stamp(), op, data, meta, tc)
	tc = n.tr.Event(e, tc, tracing.EvWAL, file, id.Nil, int64(u.Seq))
	n.met.writes.Inc()
	if n.ran != nil {
		n.ran.RecordUpdate(file)
	}
	token := sh.det.DetectTraced(e, file, tc)
	return u, token
}

// Read returns the local replica's log without triggering IDEA — the
// "file is locally updated frequently" fast path of Fig. 3. The log is a
// view, not a copy (see store.Replica.Log): read-only, it never changes
// after return, so a client may walk it off the file's shard; appending
// to it is safe, writing an element corrupts the replica. ReadChecked and
// ReadAuto return the same kind of view.
func (n *Node) Read(file id.FileID) []wire.Update {
	n.met.reads.Inc()
	return n.st.Open(file).Log()
}

// ReadChecked returns the local replica's log and triggers detection —
// the "retrieve a new file / file may be stale" path of Fig. 3. The
// consistency verdict arrives via the OnLevel hook.
func (n *Node) ReadChecked(e env.Env, file id.FileID) []wire.Update {
	n.met.reads.Inc()
	log := n.st.Open(file).Log()
	n.shardOf(file).det.Detect(e, file)
	return log
}

// ReadAuto implements Fig. 3's context-dependent read trigger: "if the
// file is locally updated frequently, the read will not trigger IDEA; if
// the file hasn't been locally updated for a long time and the user is
// afraid that the file may be inconsistent, IDEA can be triggered". A
// read of a replica whose most recent update is older than staleAfter
// starts a detection; fresher replicas are served directly. It returns
// the log and whether detection was triggered.
func (n *Node) ReadAuto(e env.Env, file id.FileID, staleAfter time.Duration) ([]wire.Update, bool) {
	rep := n.st.Open(file)
	log := rep.Log()
	latest := vv.LatestStamp(rep.Vector())
	age := time.Duration(e.Stamp() - latest)
	if latest == 0 || age > staleAfter {
		n.shardOf(file).det.Detect(e, file)
		return log, true
	}
	return log, false
}

// Level returns the most recent detected consistency level for file (1
// when never detected or resolved since).
func (n *Node) Level(file id.FileID) float64 { return n.file(file).last }

// DesiredLevel returns the level IDEA currently tries to keep file above:
// the maximum of the user hint and any learned level.
func (n *Node) DesiredLevel(file id.FileID) float64 { return n.file(file).desired() }

// ---- Controller logic (Fig. 3 decision diamond + §4.6) ----

func (sh *coreShard) handleDetectResult(e env.Env, res detect.Result) {
	n := sh.n
	fs := sh.file(res.File)
	fs.last = res.Level
	if f := n.onLevel.get(); f != nil {
		f(e, res.File, res)
	}
	desired := fs.desired()
	n.health.RecordLevel(res.At, res.File, res.Level, desired)
	switch fs.mode {
	case HintBased, OnDemand:
		// Resolve only when the level drops below what the user wants
		// (for OnDemand, "wants" is whatever IDEA has learned from
		// complaints so far; initially zero → never auto-resolve).
		if desired > 0 && res.Level < desired {
			sh.res.RequestActiveTraced(e, res.File, res.TC)
			return
		}
	case FullyAutomatic:
		// Background resolution owns convergence; detection only
		// feeds the level signal.
	}
	// Level acceptable: the user continues on the top-layer verdict,
	// but a checkpoint is taken so the bottom-layer sweep can still
	// roll these operations back if it contradicts the verdict
	// (§4.4.2). This applies to "all clear" verdicts too — those are
	// exactly the ones a bottom-layer-only conflict falsifies.
	sh.checkpoint(fs, res.File, res.Token)
}

func (sh *coreShard) checkpoint(fs *fileState, file id.FileID, token int64) {
	rep := fs.replica(sh.n.st, file)
	if fs.hasCP {
		rep.DropCheckpoint(fs.cpToken)
	}
	rep.Checkpoint(token)
	fs.cpToken = token
	fs.hasCP = true
}

func (sh *coreShard) handleDiscrepancy(e env.Env, file id.FileID, top, bottom float64, rep wire.GossipReport) {
	n := sh.n
	fs := sh.file(file)
	a := Alert{File: file, Top: top, Bottom: bottom, Reporter: rep.Reporter}
	n.met.alerts.Inc()
	n.health.Recorder().Record(e.Now(), health.FKAlert, file, rep.Reporter, int64(bottom*1000), "")
	// Roll back only when the corrected level is unacceptable for the
	// user's (learned) preference.
	if !n.opts.DisableRollback && fs.hasCP && bottom < fs.desired() {
		if undone, err := fs.replica(n.st, file).Rollback(fs.cpToken); err == nil {
			fs.hasCP = false
			a.RolledBack = true
			a.Undone = len(undone)
			n.met.rollbacks.Inc()
			n.health.Recorder().Record(e.Now(), health.FKRollback, file, rep.Reporter, int64(len(undone)), "")
			// Re-resolve to catch up with the true state, continuing the
			// timeline of the write whose gossip report exposed it.
			sh.res.RequestActiveTraced(e, file, rep.TC)
		}
	}
	if f := n.onAlert.get(); f != nil {
		f(e, a)
	}
}

func (sh *coreShard) handleApplied(e env.Env, file id.FileID, winner id.NodeID) {
	n := sh.n
	fs := sh.file(file)
	fs.last = 1
	n.met.resolved.Inc()
	n.health.Recorder().Record(e.Now(), health.FKResolved, file, winner, 0, "")
	n.health.RecordLevel(e.Now(), file, 1, fs.desired())
	sh.det.NoteResolved(file)
	if fs.hasCP {
		fs.replica(n.st, file).DropCheckpoint(fs.cpToken)
		fs.hasCP = false
	}
	if f := n.onResolved.get(); f != nil {
		f(e, file, winner)
	}
}

// Complain is the end-user interface of §5.1: the user tells IDEA the
// current consistency is not sufficient. IDEA resolves now and learns a
// new desired level (current level + Δ, or hint + Δ when higher) so the
// user is not annoyed again. Optional newWeights lets the user shift
// blame to a specific metric at the same time.
func (n *Node) Complain(e env.Env, file id.FileID, newWeights *quantify.Weights) {
	sh := n.shardOf(file)
	fs := sh.file(file)
	n.met.complaints.Inc()
	if newWeights != nil {
		n.quant.SetWeights(*newWeights)
	}
	bump := fs.last + hintDelta
	if h := fs.hint + hintDelta; h > bump {
		bump = h
	}
	if bump > 0.99 {
		bump = 0.99
	}
	if bump > fs.learned {
		fs.learned = bump
	}
	sh.res.RequestActive(e, file)
}

// SetMode selects the adaptive scheme for file.
func (n *Node) SetMode(file id.FileID, m Mode) { n.file(file).mode = m }

// Mode returns the file's adaptive scheme.
func (n *Node) Mode(file id.FileID) Mode { return n.file(file).mode }
