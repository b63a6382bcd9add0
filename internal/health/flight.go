package health

// The flight recorder is the unsampled complement of the sampled span
// journal (internal/tracing): a bounded ring of recent
// protocol/system events, a few words each, recorded unconditionally.
// The tracer answers "why was THIS write slow" for the 1% it sampled;
// the recorder answers "what was the node doing just before it went
// wrong" for the rare events sampling always misses — member
// transitions, join lifecycle, discrepancy alerts, rollbacks, resolution
// adoptions, journal errors, peer link churn, and the health engine's
// own raise/clear transitions. Per-write events are deliberately never
// recorded: the ring must stay off the hot path.

import (
	"time"

	"idea/internal/id"
	"idea/internal/telemetry"
)

// Flight-event kinds. Low-rate by construction.
const (
	FKNodeStart     = "node.start"     // node started handling events
	FKMemberAlive   = "member.alive"   // membership: node observed alive
	FKMemberSuspect = "member.suspect" // membership: node suspected
	FKMemberDead    = "member.dead"    // membership: node declared dead
	FKJoinStart     = "join.start"     // snapshot-bootstrap join began
	FKJoinDone      = "join.done"      // join caught up; arg = catchup ms
	FKAlert         = "detect.alert"   // discrepancy alert; arg = level millis
	FKRollback      = "core.rollback"  // §4.4.2 rollback ran; arg = undone
	FKResolved      = "core.resolved"  // resolution adopted; arg = winner
	FKWALError      = "wal.error"      // journal append/sync failed
	FKPeerUp        = "transport.up"   // peer link established
	FKPeerDown      = "transport.down" // peer link lost (will redial)
	FKPeerAdd       = "transport.add"  // peer registered
	FKPeerRemove    = "transport.drop" // peer deregistered
	FKHealthRaise   = "health.raise"   // detector raised; note = detector
	FKHealthClear   = "health.clear"   // detector cleared; note = detector
)

// FlightEvent is one recorded moment. At is nanoseconds since the Unix
// epoch in the recording node's clock (virtual under simnet); Seq the
// recorder-local append order, the deterministic sort key.
type FlightEvent struct {
	Seq  uint64    `json:"seq"`
	At   int64     `json:"at"`
	Kind string    `json:"kind"`
	File id.FileID `json:"file,omitempty"`
	Node id.NodeID `json:"node,omitempty"`
	Arg  int64     `json:"arg,omitempty"`
	Note string    `json:"note,omitempty"`
}

// The recorder's two ring classes and the default capacity of each.
const (
	rareClass       = 0
	chattyClass     = 1
	defaultPerClass = 2048
)

// chattyKind reports whether a kind arrives orders of magnitude more
// often than lifecycle events under load: every discrepancy alert and
// resolution adoption, on every file, on the detection cadence. Chatty
// kinds get their own ring class so a busy resolver only ever evicts
// its own history — never the rare lifecycle tail (member transitions,
// joins, WAL errors, link churn) a post-mortem needs most.
func chattyKind(kind string) bool {
	return kind == FKResolved || kind == FKAlert
}

// Recorder is a node's always-on flight ring. Safe for concurrent use
// and on a nil receiver.
type Recorder struct {
	ring *telemetry.Ring[FlightEvent]
}

// NewRecorder returns a recorder keeping perClass events of each class
// (default 2048: 4096 events per node before overwrite, split evenly
// between chatty protocol outcomes and rare lifecycle events).
func NewRecorder(perClass int) *Recorder {
	if perClass <= 0 {
		perClass = defaultPerClass
	}
	return &Recorder{ring: telemetry.NewRing(2, perClass,
		func(ev *FlightEvent) *uint64 { return &ev.Seq })}
}

// Record appends one event. The caller stamps the time (env.Now() in
// protocol code) so the recorder itself never reads a clock.
func (r *Recorder) Record(at time.Time, kind string, file id.FileID, node id.NodeID, arg int64, note string) {
	if r == nil {
		return
	}
	class := rareClass
	if chattyKind(kind) {
		class = chattyClass
	}
	r.ring.Append(class, FlightEvent{
		At:   at.UnixNano(),
		Kind: kind,
		File: file,
		Node: node,
		Arg:  arg,
		Note: note,
	})
}

// Events returns every retained event ordered by append sequence (the
// deterministic schedule order under simnet).
func (r *Recorder) Events() []FlightEvent {
	if r == nil {
		return nil
	}
	return r.ring.Events()
}

// Dropped returns how many events have been overwritten before export.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Dropped()
}

// FlightDump is the export shape shared by /debug/flight, the SIGQUIT
// dump, the raise-triggered auto-dump, and the soak artifacts.
type FlightDump struct {
	Node    id.NodeID     `json:"node"`
	Dropped uint64        `json:"dropped"`
	Events  []FlightEvent `json:"events"`
}

// DumpOf exports a recorder's retained events for the given node.
func DumpOf(self id.NodeID, r *Recorder) FlightDump {
	return FlightDump{Node: self, Dropped: r.Dropped(), Events: r.Events()}
}
