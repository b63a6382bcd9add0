// Package wire defines every message exchanged by IDEA nodes, the update
// record they carry, and a hand-rolled binary codec (see codec.go) used
// both by the TCP transport and by the simulator's byte-accurate overhead
// accounting (the paper's communication-cost metric counts protocol
// messages and their sizes, §6.3). The codec is zero-copy on the encode
// side — frames are appended into pooled buffers and handed to the
// transport whole — and copying on the decode side, so decoded messages
// never alias a read buffer.
package wire

import (
	"strconv"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/tracing"
	"idea/internal/vv"
)

// Message is implemented by every protocol message. Kind returns a stable
// short name used for per-kind overhead accounting.
type Message interface {
	Kind() string
}

// Update is one write operation on a shared file: the unit the "general
// distributed file system" substrate replicates and IDEA reasons about.
type Update struct {
	File   id.FileID
	Writer id.NodeID
	Seq    int      // per-writer sequence number, 1-based
	At     vv.Stamp // writer-local timestamp
	Meta   float64  // application critical-metadata value after this update
	Op     string   // application operation name (e.g. "draw", "book")
	Data   []byte   // opaque application payload
	// TC is the causal trace context minted when the write was injected.
	// It travels with the update through every shipping path (collect,
	// inform, anti-entropy, snapshots), so whichever replica applies the
	// update can append the "apply" span to its journal. Zero (the
	// overwhelmingly common case — unsampled) costs two bytes on the wire.
	TC tracing.Context
}

// Key uniquely identifies an update as text: "file/writer#seq".
func (u Update) Key() string {
	var buf [64]byte
	b := append(buf[:0], u.File...)
	b = u.Writer.Append(append(b, '/'))
	b = strconv.AppendInt(append(b, '#'), int64(u.Seq), 10)
	return string(b)
}

// UpdateID is an update's identity as a comparable value — what Key
// spells out, for maps that need identity rather than text.
type UpdateID struct {
	File   id.FileID
	Writer id.NodeID
	Seq    int
}

// ID returns the update's identity.
func (u Update) ID() UpdateID { return UpdateID{u.File, u.Writer, u.Seq} }

// ---- Detection (§4.3) ----

// DetectRequest carries the counts of the writer's extended version
// vector to a top-layer peer (vv.Vector.Counts: every writer's count and
// newest stamp, no windows). The peer scores nothing: it answers with its
// own vector above those counts, and the writer, which holds the rest of
// the comparison, scores it.
type DetectRequest struct {
	File  id.FileID
	Token int64 // correlates replies with one detect(update) call
	VV    *vv.Vector
	TC    tracing.Context
}

// Kind implements Message.
func (DetectRequest) Kind() string { return "detect.req" }

// DetectReply carries the peer's replica vector above the counts of the
// probe it answers (vv.Vector.Above): per writer, the count, the newest
// stamp, and the stamps from the first one the writer lacks onward —
// exactly what the writer reads to compare the two vectors and score the
// difference with Formula 1. It is one of the few messages that ship
// stamps (with GossipDigest and snapshot chunks); resolution messages
// ship counts only.
type DetectReply struct {
	File  id.FileID
	Token int64
	VV    *vv.Vector
	TC    tracing.Context
}

// Kind implements Message.
func (DetectReply) Kind() string { return "detect.rep" }

// ---- Bottom-layer gossip (§4.3, §4.4.2) ----

// GossipDigest is the TTL-bounded digest of a replica's vector that sweeps
// the bottom layer in the background to catch conflicts the top layer
// missed. Its vector carries only counts (vv.Vector.Counts), enough for an
// exact vv.Compare, so digest wire size is O(writers), flat in update
// history; the origin keeps the vector itself to score the reports the
// digest triggers (see GossipReport).
type GossipDigest struct {
	File   id.FileID
	Origin id.NodeID
	Round  int
	TTL    int
	VV     *vv.Vector
	// Stable carries the origin's rollback floor: per-writer counts it
	// can never roll back below (its oldest live checkpoint). Receivers
	// learn the log-compaction stability frontier from these, never from
	// the raw VV counts, so a later §4.4.2 rollback can never re-need an
	// update some peer already pruned. Nil on digests from old nodes;
	// receivers then fall back to the VV counts.
	Stable map[id.NodeID]int
	// TC tags the digest with the file's most recent sampled write on the
	// origin (if any) so the gossip hop shows up on that write's timeline.
	TC tracing.Context
}

// Kind implements Message.
func (GossipDigest) Kind() string { return "gossip.digest" }

// DigestBatch bundles one gossip round's digests bound for the same peer
// into a single frame: a shard sweeping F files pays one envelope, one
// encode, and one queue slot per peer per round instead of F of each.
// It implements env.Multi, so both runtimes split it back into its
// per-file digests on arrival and every digest still executes in the
// shard owning its file; the batch itself is never handed to a sharded
// handler.
type DigestBatch struct {
	Digests []GossipDigest
}

// Kind implements Message.
func (DigestBatch) Kind() string { return "gossip.digest_batch" }

// Unbatch implements env.Multi.
func (b DigestBatch) Unbatch() []env.Message {
	out := make([]env.Message, len(b.Digests))
	for i, d := range b.Digests {
		out[i] = d
	}
	return out
}

// GossipReport flows back to the origin when a bottom-layer node found its
// replica concurrent with a digest. VV is the reporter's vector above the
// digest's counts (vv.Vector.Above), which is all the origin lacks: the
// origin scores the vector it advertised in round Round against it.
type GossipReport struct {
	File     id.FileID
	Origin   id.NodeID
	Reporter id.NodeID
	Round    int
	VV       *vv.Vector
	TC       tracing.Context
}

// Kind implements Message.
func (GossipReport) Kind() string { return "gossip.report" }

// ---- RanSub temperature overlay (§4.1) ----

// Candidate pairs a node with its updating temperature for a file. Epoch
// is the *origin's* epoch when it advertised this temperature; relays
// preserve it, so receivers can prefer fresher origin advertisements and
// expire candidates whose origin went quiet (a relayed copy must not keep
// a cooled writer alive).
type Candidate struct {
	Node  id.NodeID
	Temp  float64
	Epoch int
}

// RansubCollect flows up the dissemination tree carrying a uniform random
// sample of candidates seen in the subtree.
type RansubCollect struct {
	File   id.FileID
	Epoch  int
	Sample []Candidate
}

// Kind implements Message.
func (RansubCollect) Kind() string { return "ransub.collect" }

// RansubDistribute flows down the tree delivering the epoch's random
// subset; nodes use it to learn hot candidates and elect the top layer.
type RansubDistribute struct {
	File   id.FileID
	Epoch  int
	Sample []Candidate
}

// Kind implements Message.
func (RansubDistribute) Kind() string { return "ransub.dist" }

// ---- Resolution (§4.5) ----

// CallForAttention is phase one of active resolution: the initiator asks
// every top-layer member, in parallel, to stand by for resolution.
type CallForAttention struct {
	File      id.FileID
	Initiator id.NodeID
	Token     int64
	TC        tracing.Context
}

// Kind implements Message.
func (CallForAttention) Kind() string { return "resolve.cfa" }

// CFAAck acknowledges a CallForAttention. OK is false when the receiver
// has already initiated (or acked) a competing resolution, which sends the
// loser into randomized back-off (§4.5.2).
type CFAAck struct {
	File  id.FileID
	Token int64
	OK    bool
}

// Kind implements Message.
func (CFAAck) Kind() string { return "resolve.cfa_ack" }

// CFACancel tells members a backed-off initiator abandoned its attempt.
type CFACancel struct {
	File  id.FileID
	Token int64
}

// Kind implements Message.
func (CFACancel) Kind() string { return "resolve.cfa_cancel" }

// CollectRequest is phase two: the initiator sequentially visits each
// member to collect its version information and updates. It carries the
// initiator's vector, as counts (vv.Vector.Counts), so the member only
// ships updates the initiator lacks.
type CollectRequest struct {
	File  id.FileID
	Token int64
	VV    *vv.Vector
	TC    tracing.Context
}

// Kind implements Message.
func (CollectRequest) Kind() string { return "resolve.collect" }

// CollectReply returns a member's vector, as counts, and the updates the
// initiator lacks.
type CollectReply struct {
	File    id.FileID
	Token   int64
	VV      *vv.Vector
	Updates []Update
	TC      tracing.Context
}

// Kind implements Message.
func (CollectReply) Kind() string { return "resolve.collect_rep" }

// Inform announces the new consistent replica image: the winning vector,
// as counts, and any updates a member may be missing; members apply them
// and clear their inconsistency state.
type Inform struct {
	File    id.FileID
	Token   int64
	Winner  id.NodeID
	VV      *vv.Vector
	Updates []Update
	TC      tracing.Context
}

// Kind implements Message.
func (Inform) Kind() string { return "resolve.inform" }

// InformAck confirms a member applied the consistent image.
type InformAck struct {
	File  id.FileID
	Token int64
}

// Kind implements Message.
func (InformAck) Kind() string { return "resolve.inform_ack" }

// ---- Baselines (§2, Fig. 2) ----

// AntiEntropyRequest asks a random peer for its state (optimistic
// consistency, Bayou-style).
type AntiEntropyRequest struct {
	File id.FileID
	VV   *vv.Vector
}

// Kind implements Message.
func (AntiEntropyRequest) Kind() string { return "base.ae_req" }

// AntiEntropyReply ships back the peer's vector and updates.
type AntiEntropyReply struct {
	File    id.FileID
	VV      *vv.Vector
	Updates []Update
}

// Kind implements Message.
func (AntiEntropyReply) Kind() string { return "base.ae_rep" }

// StrongWrite forwards a write to the primary (strong consistency).
type StrongWrite struct {
	File   id.FileID
	Update Update
}

// Kind implements Message.
func (StrongWrite) Kind() string { return "base.sc_write" }

// StrongReplicate pushes a committed write synchronously to every replica.
type StrongReplicate struct {
	File   id.FileID
	Update Update
	Commit int // primary commit index
}

// Kind implements Message.
func (StrongReplicate) Kind() string { return "base.sc_repl" }

// StrongAck acknowledges replication; the primary acks the writer only
// after all replicas acked.
type StrongAck struct {
	File   id.FileID
	Commit int
}

// Kind implements Message.
func (StrongAck) Kind() string { return "base.sc_ack" }

// StrongCommitted notifies the issuing writer that its write is fully
// replicated.
type StrongCommitted struct {
	File   id.FileID
	Update Update
}

// Kind implements Message.
func (StrongCommitted) Kind() string { return "base.sc_commit" }

// ---- Dynamic membership (SWIM-style failure detection + join) ----

// MemberStatus is the wire form of a membership record's state. The
// membership package defines the semantics; the wire layer only ships the
// byte.
type MemberStatus uint8

// The membership states a record can carry.
const (
	MemberAlive MemberStatus = iota
	MemberSuspect
	MemberDead
)

// MemberRecord is one incarnation-numbered membership assertion, the unit
// piggybacked on probe traffic for dissemination. Addr is the node's
// dialable listen address (empty under the emulator, which routes by ID).
type MemberRecord struct {
	Node   id.NodeID
	Addr   string
	Status MemberStatus
	Inc    int
}

// SwimPing is a direct liveness probe. The receiver answers with SwimAck
// carrying the same Seq; both directions piggyback membership records.
// Addr is the sender's dialable address: a receiver that believed the
// sender dead (and tore its link down) needs it to deliver the ack — the
// first hop of the refutation loop.
type SwimPing struct {
	Seq       int64
	Addr      string
	Piggyback []MemberRecord
}

// Kind implements Message.
func (SwimPing) Kind() string { return "member.ping" }

// SwimAck answers a SwimPing (Acker == the probed node) or completes an
// indirect probe relay (the relay forwards the target's ack to the probe
// origin, preserving the origin's Seq).
type SwimAck struct {
	Seq       int64
	Acker     id.NodeID
	Piggyback []MemberRecord
}

// Kind implements Message.
func (SwimAck) Kind() string { return "member.ack" }

// SwimPingReq asks a relay to probe Target on the sender's behalf — the
// SWIM indirect probe that keeps one lossy path from condemning a live
// node.
type SwimPingReq struct {
	Seq       int64
	Target    id.NodeID
	Piggyback []MemberRecord
}

// Kind implements Message.
func (SwimPingReq) Kind() string { return "member.pingreq" }

// SwimLeave is a voluntary departure announcement: the leaver broadcasts
// it directly (it is shutting down, so piggyback dissemination would be
// too slow) and receivers mark it dead at the carried incarnation without
// a suspicion period.
type SwimLeave struct {
	Node id.NodeID
	Inc  int
}

// Kind implements Message.
func (SwimLeave) Kind() string { return "member.leave" }

// JoinRequest announces a node that wants to enter the cluster knowing
// only one seed. The seed replies with JoinReply and disseminates the
// joiner's alive record.
type JoinRequest struct {
	Node id.NodeID
	Addr string
}

// Kind implements Message.
func (JoinRequest) Kind() string { return "member.join" }

// JoinReply hands the joiner the seed's full membership view.
type JoinReply struct {
	Members []MemberRecord
}

// Kind implements Message.
func (JoinReply) Kind() string { return "member.join_rep" }

// ---- Snapshot state transfer (join bootstrap) ----

// SnapshotRequest asks a peer for its file census; the joiner then pulls
// each file's state with SnapshotFileRequest instead of replaying history
// through anti-entropy.
type SnapshotRequest struct{}

// Kind implements Message.
func (SnapshotRequest) Kind() string { return "snap.req" }

// SnapshotManifest lists the files a SnapshotRequest receiver holds.
type SnapshotManifest struct {
	Files []id.FileID
}

// Kind implements Message.
func (SnapshotManifest) Kind() string { return "snap.manifest" }

// SnapshotFileRequest pulls one window of a file's replica snapshot,
// starting at log position Offset (0-based, counted from the sender's
// applied-order log origin including any compacted prefix). The joiner
// walks a file by re-issuing the request with the offset it reached, so
// the server stays stateless and retries are idempotent.
type SnapshotFileRequest struct {
	File   id.FileID
	Offset int
}

// Kind implements Message.
func (SnapshotFileRequest) Kind() string { return "snap.file_req" }

// SnapshotFileChunk is one bounded window of a replica's transferable
// state. Snapshot transfer is chunked: a joiner pulling a file never
// receives (and the sender never materializes) the whole log in one
// frame — each chunk carries at most the server's window of updates and
// the joiner asks for the next window once the previous is applied.
//
// Every chunk restates the sender's full version vector, the per-writer
// compaction base (updates below it were pruned on the sender and are
// covered by the vector alone), and the critical-metadata value as of
// that base: chunks are self-describing, so a transfer can resume from
// any offset against any replica that has at least that much history.
// Offset is the log position of the first update carried; End is the
// sender's log length at serve time. Offset == End with no updates
// means the requested range is fully transferred.
type SnapshotFileChunk struct {
	File       id.FileID
	VV         *vv.Vector
	Base       map[id.NodeID]int
	PrefixMeta float64
	Offset     int
	End        int
	Updates    []Update
}

// Kind implements Message.
func (SnapshotFileChunk) Kind() string { return "snap.file_chunk" }

// ---- P2P file-system frontend (§7.3 integration) ----

// FSWrite routes a client write to a replica of the file's replica set.
type FSWrite struct {
	File  id.FileID
	Token int64
	Op    string
	Data  []byte
	Meta  float64
}

// Kind implements Message.
func (FSWrite) Kind() string { return "fs.write" }

// FSWriteAck confirms a routed write and names the update created.
type FSWriteAck struct {
	File  id.FileID
	Token int64
	Key   string
}

// Kind implements Message.
func (FSWriteAck) Kind() string { return "fs.write_ack" }

// FSRead asks a replica for the file's current log.
type FSRead struct {
	File  id.FileID
	Token int64
}

// Kind implements Message.
func (FSRead) Kind() string { return "fs.read" }

// FSReadReply returns the replica's log and its consistency level.
type FSReadReply struct {
	File    id.FileID
	Token   int64
	Updates []Update
	Level   float64
}

// Kind implements Message.
func (FSReadReply) Kind() string { return "fs.read_reply" }

// ---- Codec ----

// RoutingFile returns the per-file serialization key of a protocol
// message: the file whose shard must process it under the env.Sharded
// contract. Node-global protocol families return ok=false and run on
// shard 0 — the RanSub waves do carry a FileID, but the temperature
// overlay's tree state is node-global by design, so they are deliberately
// not file-routed. env.Multi bundles (DigestBatch) are split by the
// runtime before routing, so they never reach this switch on the bundled
// runtimes and deliberately have no case.
func RoutingFile(msg Message) (id.FileID, bool) {
	switch m := msg.(type) {
	case DetectRequest:
		return m.File, true
	case DetectReply:
		return m.File, true
	case GossipDigest:
		return m.File, true
	case GossipReport:
		return m.File, true
	case CallForAttention:
		return m.File, true
	case CFAAck:
		return m.File, true
	case CFACancel:
		return m.File, true
	case CollectRequest:
		return m.File, true
	case CollectReply:
		return m.File, true
	case Inform:
		return m.File, true
	case InformAck:
		return m.File, true
	case AntiEntropyRequest:
		return m.File, true
	case AntiEntropyReply:
		return m.File, true
	case StrongWrite:
		return m.File, true
	case StrongReplicate:
		return m.File, true
	case StrongAck:
		return m.File, true
	case StrongCommitted:
		return m.File, true
	case SnapshotFileRequest:
		return m.File, true
	case SnapshotFileChunk:
		return m.File, true
	case FSWrite:
		return m.File, true
	case FSWriteAck:
		return m.File, true
	case FSRead:
		return m.File, true
	case FSReadReply:
		return m.File, true
	}
	return "", false
}

// Envelope frames a message with its routing information for the codec.
type Envelope struct {
	From, To id.NodeID
	Msg      Message
}
