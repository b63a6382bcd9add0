// Hand-rolled binary codec for the wire envelope. It replaces the
// original per-frame gob streams on the hot path: gob allocates a fresh
// encoder, type descriptors, and reflection state for every frame,
// which put a floor of dozens of allocations under every message the
// transport ships. This codec is append-only into a caller-supplied
// buffer (AppendTo), has a pooled-frame front end
// (EncodeFrame / Frame.Release) for the transport, and decodes with a
// single bounds-checked pass that copies all byte payloads — a decoded
// envelope never aliases the input buffer, so read buffers can be
// pooled and reused immediately after Decode returns.
//
// Wire format (all multi-byte integers are varints unless noted):
//
//	magic (1B) | version (1B) | From | To | kind (1B) | payload
//
// Field order inside each payload matches the struct definition in
// wire.go. Vectors ship Meta and Err as fixed 8-byte floats, then the
// entries sorted by writer ID (map iteration order must not reach the
// wire — see the determinism analyzer); per-entry stamps are
// delta-encoded, exploiting the vv invariant that stamp windows are
// non-decreasing. Maps (GossipDigest.Stable, SnapshotFileChunk.Base) are
// likewise sorted by key. Strings and byte
// slices are length-prefixed. A frame must be consumed exactly: trailing
// bytes are a decode error.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"idea/internal/id"
	"idea/internal/tracing"
	"idea/internal/vv"
)

// codecVersion changes with any layout change, so a peer speaking another
// layout is rejected at the version byte instead of being misparsed.
const (
	codecMagic   byte = 0xE7
	codecVersion byte = 5
)

// Message kind codes. These are wire-stable: append new kinds at the
// end, never renumber.
const (
	kindInvalid byte = iota
	kindDetectRequest
	kindDetectReply
	kindGossipDigest
	kindDigestBatch
	kindGossipReport
	kindRansubCollect
	kindRansubDistribute
	kindCallForAttention
	kindCFAAck
	kindCFACancel
	kindCollectRequest
	kindCollectReply
	kindInform
	kindInformAck
	kindAntiEntropyRequest
	kindAntiEntropyReply
	kindStrongWrite
	kindStrongReplicate
	kindStrongAck
	kindStrongCommitted
	kindSwimPing
	kindSwimAck
	kindSwimPingReq
	kindSwimLeave
	kindJoinRequest
	kindJoinReply
	kindSnapshotRequest
	kindSnapshotManifest
	kindSnapshotFileRequest
	kindSnapshotFileChunk
	kindFSWrite
	kindFSWriteAck
	kindFSRead
	kindFSReadReply
)

// NumKinds bounds the kind codes Measure returns.
const NumKinds = int(kindFSReadReply) + 1

// encState is the per-encode scratch: a reusable key slice for the
// sorted-map encodings. It lives inside pooled Frames so steady-state encoding performs no allocations at all.
type encState struct {
	keys []id.NodeID
}

// maxPooledFrame bounds the capacity a released Frame may carry back
// into the pool. Snapshot chunks legitimately reach ~1 MiB and keeping
// a few warm is the point of the pool; larger outliers are dropped so
// one giant frame cannot pin memory forever.
const maxPooledFrame = 2 << 20

var framePool = sync.Pool{New: func() any { return &Frame{} }}

// Frame is a pooled encoded envelope. Ownership contract: the caller of
// EncodeFrame owns the frame until it calls Release, after which the
// frame and the slice returned by Bytes are invalid — the pool will
// hand the same backing buffer to another encoder. Nothing may retain
// Bytes() across Release; the transport's writer releases a frame only
// after the vectored write that includes it has returned.
type Frame struct {
	buf []byte
	st  encState
}

// Bytes returns the encoded frame, including any headroom requested at
// encode time. Valid until Release.
func (f *Frame) Bytes() []byte { return f.buf }

// Payload returns the encoded envelope without the headroom prefix.
func (f *Frame) Payload(headroom int) []byte { return f.buf[headroom:] }

// Release returns the frame to the pool. The frame must not be used
// again.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	if cap(f.buf) > maxPooledFrame {
		f.buf = nil
	}
	framePool.Put(f)
}

var headroomZeros [16]byte

// EncodeFrame encodes e into a pooled frame, reserving headroom zero
// bytes at the front for the transport to stamp its length prefix into
// without a second buffer. The returned frame must be Released exactly
// once. Steady-state cost is zero heap allocations per call.
func EncodeFrame(e Envelope, headroom int) (*Frame, error) {
	if headroom < 0 || headroom > len(headroomZeros) {
		return nil, fmt.Errorf("wire: headroom %d out of range", headroom)
	}
	f := framePool.Get().(*Frame)
	b := append(f.buf[:0], headroomZeros[:headroom]...)
	b, err := appendEnvelope(b, e, &f.st)
	if err != nil {
		f.buf = b[:0]
		f.Release()
		return nil, err
	}
	f.buf = b
	return f, nil
}

var encStatePool = sync.Pool{New: func() any { return &encState{} }}

// AppendTo appends the encoded envelope to buf and returns the extended
// slice, growing it as needed. This is the zero-copy building block:
// callers that already own a destination buffer (a pending per-peer
// write buffer, a journal page) encode straight into it.
func (e Envelope) AppendTo(buf []byte) ([]byte, error) {
	st := encStatePool.Get().(*encState)
	b, err := appendEnvelope(buf, e, st)
	encStatePool.Put(st)
	return b, err
}

// Encode encodes an envelope into a fresh buffer. It remains for
// compatibility and tests; hot paths use EncodeFrame or AppendTo, which
// reuse buffers instead of allocating one per frame.
func Encode(e Envelope) ([]byte, error) {
	return e.AppendTo(nil)
}

// Decode decodes a frame produced by Encode/AppendTo/EncodeFrame. The
// returned envelope shares no memory with b: every string and byte
// slice is copied out, so b may come from (and immediately return to) a
// pooled read buffer.
func Decode(b []byte) (Envelope, error) {
	r := reader{b: b}
	if r.u8() != codecMagic || r.u8() != codecVersion {
		if r.err == nil {
			r.err = errors.New("wire: bad frame magic/version")
		}
		return Envelope{}, r.err
	}
	e := Envelope{From: id.NodeID(r.varint()), To: id.NodeID(r.varint())}
	e.Msg = decodeMsg(&r, r.u8())
	if r.err != nil {
		return Envelope{}, fmt.Errorf("wire: decode: %w", r.err)
	}
	if r.off != len(r.b) {
		return Envelope{}, fmt.Errorf("wire: decode: %d trailing bytes", len(r.b)-r.off)
	}
	return e, nil
}

// ---- append primitives ----

func appendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }
func appendVarint(b []byte, x int64) []byte   { return binary.AppendVarint(b, x) }
func appendInt(b []byte, x int) []byte        { return binary.AppendVarint(b, int64(x)) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendNode(b []byte, n id.NodeID) []byte { return appendVarint(b, int64(n)) }
func appendFile(b []byte, f id.FileID) []byte { return appendString(b, string(f)) }

func appendTC(b []byte, tc tracing.Context) []byte {
	b = appendUvarint(b, tc.Trace)
	return appendUvarint(b, tc.Span)
}

func appendTriple(b []byte, t vv.Triple) []byte {
	b = appendFloat(b, t.Numerical)
	b = appendFloat(b, t.Order)
	return appendFloat(b, t.Staleness)
}

func appendStamps(b []byte, stamps []vv.Stamp) []byte {
	// vv invariant: stamp windows are non-decreasing, so deltas are
	// small non-negative numbers; zigzag varints keep hostile or buggy
	// inputs lossless anyway.
	b = appendUvarint(b, uint64(len(stamps)))
	prev := int64(0)
	for i, s := range stamps {
		if i == 0 {
			b = appendVarint(b, int64(s))
		} else {
			b = appendVarint(b, int64(s)-prev)
		}
		prev = int64(s)
	}
	return b
}

func appendVector(b []byte, v *vv.Vector) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendFloat(b, v.Meta)
	b = appendTriple(b, v.Err)
	// Entries yields writers in ascending order: the canonical order.
	b = appendUvarint(b, uint64(v.Len()))
	for n, e := range v.Entries {
		b = appendNode(b, n)
		b = appendInt(b, e.Count)
		b = appendInt(b, e.Base)
		b = appendVarint(b, int64(e.Watermark))
		b = appendStamps(b, e.Stamps)
	}
	return b
}

func appendCountMap(b []byte, m map[id.NodeID]int, st *encState) []byte {
	if m == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	keys := st.keys[:0]
	for n := range m {
		keys = append(keys, n)
	}
	slices.Sort(keys)
	st.keys = keys
	b = appendUvarint(b, uint64(len(keys)))
	for _, n := range keys {
		b = appendNode(b, n)
		b = appendInt(b, m[n])
	}
	return b
}

// AppendUpdate appends u's encoding to b: the one field list for an
// update, shared by every message that carries one and by the store's
// on-disk journal.
func AppendUpdate(b []byte, u Update) []byte {
	b = appendFile(b, u.File)
	b = appendNode(b, u.Writer)
	b = appendInt(b, u.Seq)
	b = appendVarint(b, int64(u.At))
	b = appendFloat(b, u.Meta)
	b = appendString(b, u.Op)
	b = appendBytes(b, u.Data)
	return appendTC(b, u.TC)
}

func appendUpdates(b []byte, us []Update) []byte {
	b = appendUvarint(b, uint64(len(us)))
	for _, u := range us {
		b = AppendUpdate(b, u)
	}
	return b
}

func appendCandidates(b []byte, cs []Candidate) []byte {
	b = appendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = appendNode(b, c.Node)
		b = appendFloat(b, c.Temp)
		b = appendInt(b, c.Epoch)
	}
	return b
}

func appendMembers(b []byte, ms []MemberRecord) []byte {
	b = appendUvarint(b, uint64(len(ms)))
	for _, m := range ms {
		b = appendNode(b, m.Node)
		b = appendString(b, m.Addr)
		b = append(b, byte(m.Status))
		b = appendInt(b, m.Inc)
	}
	return b
}

func appendDigest(b []byte, d GossipDigest, st *encState) []byte {
	b = appendFile(b, d.File)
	b = appendNode(b, d.Origin)
	b = appendInt(b, d.Round)
	b = appendInt(b, d.TTL)
	b = appendVector(b, d.VV)
	b = appendCountMap(b, d.Stable, st)
	return appendTC(b, d.TC)
}

// appendEnvelope writes the framed envelope. It is total over the
// message set in wire.go; an unknown or nil message is an error, never
// a panic.
func appendEnvelope(b []byte, e Envelope, st *encState) ([]byte, error) {
	b = append(b, codecMagic, codecVersion)
	b = appendNode(b, e.From)
	b = appendNode(b, e.To)
	switch m := e.Msg.(type) {
	case DetectRequest:
		b = append(b, kindDetectRequest)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendVector(b, m.VV)
		b = appendTC(b, m.TC)
	case DetectReply:
		b = append(b, kindDetectReply)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendVector(b, m.VV)
		b = appendTC(b, m.TC)
	case GossipDigest:
		b = append(b, kindGossipDigest)
		b = appendDigest(b, m, st)
	case DigestBatch:
		b = append(b, kindDigestBatch)
		b = appendUvarint(b, uint64(len(m.Digests)))
		for _, d := range m.Digests {
			b = appendDigest(b, d, st)
		}
	case GossipReport:
		b = append(b, kindGossipReport)
		b = appendFile(b, m.File)
		b = appendNode(b, m.Origin)
		b = appendNode(b, m.Reporter)
		b = appendInt(b, m.Round)
		b = appendVector(b, m.VV)
		b = appendTC(b, m.TC)
	case RansubCollect:
		b = append(b, kindRansubCollect)
		b = appendFile(b, m.File)
		b = appendInt(b, m.Epoch)
		b = appendCandidates(b, m.Sample)
	case RansubDistribute:
		b = append(b, kindRansubDistribute)
		b = appendFile(b, m.File)
		b = appendInt(b, m.Epoch)
		b = appendCandidates(b, m.Sample)
	case CallForAttention:
		b = append(b, kindCallForAttention)
		b = appendFile(b, m.File)
		b = appendNode(b, m.Initiator)
		b = appendVarint(b, m.Token)
		b = appendTC(b, m.TC)
	case CFAAck:
		b = append(b, kindCFAAck)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendBool(b, m.OK)
	case CFACancel:
		b = append(b, kindCFACancel)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
	case CollectRequest:
		b = append(b, kindCollectRequest)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendVector(b, m.VV)
		b = appendTC(b, m.TC)
	case CollectReply:
		b = append(b, kindCollectReply)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendVector(b, m.VV)
		b = appendUpdates(b, m.Updates)
		b = appendTC(b, m.TC)
	case Inform:
		b = append(b, kindInform)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendNode(b, m.Winner)
		b = appendVector(b, m.VV)
		b = appendUpdates(b, m.Updates)
		b = appendTC(b, m.TC)
	case InformAck:
		b = append(b, kindInformAck)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
	case AntiEntropyRequest:
		b = append(b, kindAntiEntropyRequest)
		b = appendFile(b, m.File)
		b = appendVector(b, m.VV)
	case AntiEntropyReply:
		b = append(b, kindAntiEntropyReply)
		b = appendFile(b, m.File)
		b = appendVector(b, m.VV)
		b = appendUpdates(b, m.Updates)
	case StrongWrite:
		b = append(b, kindStrongWrite)
		b = appendFile(b, m.File)
		b = AppendUpdate(b, m.Update)
	case StrongReplicate:
		b = append(b, kindStrongReplicate)
		b = appendFile(b, m.File)
		b = AppendUpdate(b, m.Update)
		b = appendInt(b, m.Commit)
	case StrongAck:
		b = append(b, kindStrongAck)
		b = appendFile(b, m.File)
		b = appendInt(b, m.Commit)
	case StrongCommitted:
		b = append(b, kindStrongCommitted)
		b = appendFile(b, m.File)
		b = AppendUpdate(b, m.Update)
	case SwimPing:
		b = append(b, kindSwimPing)
		b = appendVarint(b, m.Seq)
		b = appendString(b, m.Addr)
		b = appendMembers(b, m.Piggyback)
	case SwimAck:
		b = append(b, kindSwimAck)
		b = appendVarint(b, m.Seq)
		b = appendNode(b, m.Acker)
		b = appendMembers(b, m.Piggyback)
	case SwimPingReq:
		b = append(b, kindSwimPingReq)
		b = appendVarint(b, m.Seq)
		b = appendNode(b, m.Target)
		b = appendMembers(b, m.Piggyback)
	case SwimLeave:
		b = append(b, kindSwimLeave)
		b = appendNode(b, m.Node)
		b = appendInt(b, m.Inc)
	case JoinRequest:
		b = append(b, kindJoinRequest)
		b = appendNode(b, m.Node)
		b = appendString(b, m.Addr)
	case JoinReply:
		b = append(b, kindJoinReply)
		b = appendMembers(b, m.Members)
	case SnapshotRequest:
		b = append(b, kindSnapshotRequest)
	case SnapshotManifest:
		b = append(b, kindSnapshotManifest)
		b = appendUvarint(b, uint64(len(m.Files)))
		for _, f := range m.Files {
			b = appendFile(b, f)
		}
	case SnapshotFileRequest:
		b = append(b, kindSnapshotFileRequest)
		b = appendFile(b, m.File)
		b = appendInt(b, m.Offset)
	case SnapshotFileChunk:
		b = append(b, kindSnapshotFileChunk)
		b = appendFile(b, m.File)
		b = appendVector(b, m.VV)
		b = appendCountMap(b, m.Base, st)
		b = appendFloat(b, m.PrefixMeta)
		b = appendInt(b, m.Offset)
		b = appendInt(b, m.End)
		b = appendUpdates(b, m.Updates)
	case FSWrite:
		b = append(b, kindFSWrite)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendString(b, m.Op)
		b = appendBytes(b, m.Data)
		b = appendFloat(b, m.Meta)
	case FSWriteAck:
		b = append(b, kindFSWriteAck)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendString(b, m.Key)
	case FSRead:
		b = append(b, kindFSRead)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
	case FSReadReply:
		b = append(b, kindFSReadReply)
		b = appendFile(b, m.File)
		b = appendVarint(b, m.Token)
		b = appendUpdates(b, m.Updates)
		b = appendFloat(b, m.Level)
	case nil:
		return b, errors.New("wire: encode: nil message")
	default:
		return b, fmt.Errorf("wire: encode: unknown message type %T", e.Msg)
	}
	return b, nil
}

// ---- decoding ----

// Minimum encoded sizes per element, used to bound slice preallocation
// against the remaining input: a hostile length prefix can then inflate
// memory by at most sizeof(elem)/minimum, not arbitrarily.
const (
	minUpdateBytes = 16
	minCandBytes   = 10
	minMemberBytes = 4
	minDigestBytes = 8
	minEntryBytes  = 5
	minPairBytes   = 2
)

// reader is a bounds-checked sequential decoder. The first failure
// latches err; subsequent reads return zero values, so decode functions
// can run straight-line and check err once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
}

func (r *reader) rem() int { return len(r.b) - r.off }

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated frame")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) int() int { return int(r.varint()) }

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.rem() < 8 {
		r.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *reader) bool() bool { return r.u8() != 0 }

// length reads a count prefix for a sequence whose elements each occupy
// at least min encoded bytes, rejecting counts the remaining input
// cannot possibly satisfy.
func (r *reader) length(min int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(r.rem()/min) {
		r.fail("length prefix exceeds frame")
		return 0
	}
	return int(n)
}

// blob reads a length-prefixed byte slice, copying it out of the frame
// buffer (pooled read buffers must never be aliased by decoded
// messages). Zero length decodes as nil, matching the encoder.
func (r *reader) blob() []byte {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+n])
	r.off += n
	return out
}

func (r *reader) str() string {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) node() id.NodeID { return id.NodeID(r.varint()) }
func (r *reader) file() id.FileID { return id.FileID(r.str()) }

func (r *reader) tc() tracing.Context {
	return tracing.Context{Trace: r.uvarint(), Span: r.uvarint()}
}

func (r *reader) triple() vv.Triple {
	return vv.Triple{Numerical: r.float(), Order: r.float(), Staleness: r.float()}
}

func (r *reader) stamps() []vv.Stamp {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]vv.Stamp, n)
	prev := int64(0)
	for i := range out {
		d := r.varint()
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		out[i] = vv.Stamp(prev)
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *reader) vector() *vv.Vector {
	present := r.u8()
	if r.err != nil || present == 0 {
		return nil
	}
	v := vv.New()
	v.Meta = r.float()
	v.Err = r.triple()
	n := r.length(minEntryBytes)
	v.Grow(n)
	for i := 0; i < n && r.err == nil; i++ {
		node := r.node()
		e := vv.Entry{Count: r.int(), Base: r.int(), Watermark: vv.Stamp(r.varint())}
		e.Stamps = r.stamps()
		if r.err != nil {
			break
		}
		if e.Count < 0 || e.Base < 0 || e.Count != e.Base+len(e.Stamps) {
			r.fail("vector entry violates count invariant")
			break
		}
		v.AppendEntry(node, e)
	}
	if r.err != nil {
		return nil
	}
	// An honest encoder sends writers ascending, so this only checks; a
	// hostile frame's out-of-order or repeated writers are sorted once
	// (the last duplicate wins), never inserted one by one.
	v.SortEntries()
	return v
}

func (r *reader) countMap() map[id.NodeID]int {
	present := r.u8()
	if r.err != nil || present == 0 {
		return nil
	}
	n := r.length(minPairBytes)
	if r.err != nil {
		return nil
	}
	m := make(map[id.NodeID]int, n)
	for i := 0; i < n && r.err == nil; i++ {
		node := r.node()
		m[node] = r.int()
	}
	if r.err != nil {
		return nil
	}
	return m
}

func (r *reader) update() Update {
	return Update{
		File:   r.file(),
		Writer: r.node(),
		Seq:    r.int(),
		At:     vv.Stamp(r.varint()),
		Meta:   r.float(),
		Op:     r.str(),
		Data:   r.blob(),
		TC:     r.tc(),
	}
}

// DecodeUpdate decodes exactly one AppendUpdate encoding. Like Decode,
// the result shares no memory with b.
func DecodeUpdate(b []byte) (Update, error) {
	r := reader{b: b}
	u := r.update()
	if r.err == nil && r.off != len(b) {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return Update{}, fmt.Errorf("wire: decode update: %w", r.err)
	}
	return u, nil
}

func (r *reader) updates() []Update {
	n := r.length(minUpdateBytes)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]Update, n)
	for i := range out {
		out[i] = r.update()
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *reader) candidates() []Candidate {
	n := r.length(minCandBytes)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{Node: r.node(), Temp: r.float(), Epoch: r.int()}
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *reader) members() []MemberRecord {
	n := r.length(minMemberBytes)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]MemberRecord, n)
	for i := range out {
		out[i] = MemberRecord{Node: r.node(), Addr: r.str(), Status: MemberStatus(r.u8()), Inc: r.int()}
	}
	if r.err != nil {
		return nil
	}
	return out
}

func (r *reader) digest() GossipDigest {
	return GossipDigest{
		File:   r.file(),
		Origin: r.node(),
		Round:  r.int(),
		TTL:    r.int(),
		VV:     r.vector(),
		Stable: r.countMap(),
		TC:     r.tc(),
	}
}

func decodeMsg(r *reader, kind byte) Message {
	switch kind {
	case kindDetectRequest:
		return DetectRequest{File: r.file(), Token: r.varint(), VV: r.vector(), TC: r.tc()}
	case kindDetectReply:
		return DetectReply{File: r.file(), Token: r.varint(), VV: r.vector(), TC: r.tc()}
	case kindGossipDigest:
		return r.digest()
	case kindDigestBatch:
		n := r.length(minDigestBytes)
		if r.err != nil {
			return nil
		}
		ds := make([]GossipDigest, n)
		for i := range ds {
			ds[i] = r.digest()
		}
		return DigestBatch{Digests: ds}
	case kindGossipReport:
		return GossipReport{File: r.file(), Origin: r.node(), Reporter: r.node(),
			Round: r.int(), VV: r.vector(), TC: r.tc()}
	case kindRansubCollect:
		return RansubCollect{File: r.file(), Epoch: r.int(), Sample: r.candidates()}
	case kindRansubDistribute:
		return RansubDistribute{File: r.file(), Epoch: r.int(), Sample: r.candidates()}
	case kindCallForAttention:
		return CallForAttention{File: r.file(), Initiator: r.node(), Token: r.varint(), TC: r.tc()}
	case kindCFAAck:
		return CFAAck{File: r.file(), Token: r.varint(), OK: r.bool()}
	case kindCFACancel:
		return CFACancel{File: r.file(), Token: r.varint()}
	case kindCollectRequest:
		return CollectRequest{File: r.file(), Token: r.varint(), VV: r.vector(), TC: r.tc()}
	case kindCollectReply:
		return CollectReply{File: r.file(), Token: r.varint(), VV: r.vector(),
			Updates: r.updates(), TC: r.tc()}
	case kindInform:
		return Inform{File: r.file(), Token: r.varint(), Winner: r.node(), VV: r.vector(),
			Updates: r.updates(), TC: r.tc()}
	case kindInformAck:
		return InformAck{File: r.file(), Token: r.varint()}
	case kindAntiEntropyRequest:
		return AntiEntropyRequest{File: r.file(), VV: r.vector()}
	case kindAntiEntropyReply:
		return AntiEntropyReply{File: r.file(), VV: r.vector(), Updates: r.updates()}
	case kindStrongWrite:
		return StrongWrite{File: r.file(), Update: r.update()}
	case kindStrongReplicate:
		return StrongReplicate{File: r.file(), Update: r.update(), Commit: r.int()}
	case kindStrongAck:
		return StrongAck{File: r.file(), Commit: r.int()}
	case kindStrongCommitted:
		return StrongCommitted{File: r.file(), Update: r.update()}
	case kindSwimPing:
		return SwimPing{Seq: r.varint(), Addr: r.str(), Piggyback: r.members()}
	case kindSwimAck:
		return SwimAck{Seq: r.varint(), Acker: r.node(), Piggyback: r.members()}
	case kindSwimPingReq:
		return SwimPingReq{Seq: r.varint(), Target: r.node(), Piggyback: r.members()}
	case kindSwimLeave:
		return SwimLeave{Node: r.node(), Inc: r.int()}
	case kindJoinRequest:
		return JoinRequest{Node: r.node(), Addr: r.str()}
	case kindJoinReply:
		return JoinReply{Members: r.members()}
	case kindSnapshotRequest:
		return SnapshotRequest{}
	case kindSnapshotManifest:
		n := r.length(1)
		if r.err != nil {
			return nil
		}
		var fs []id.FileID
		if n > 0 {
			fs = make([]id.FileID, n)
			for i := range fs {
				fs[i] = r.file()
			}
		}
		return SnapshotManifest{Files: fs}
	case kindSnapshotFileRequest:
		return SnapshotFileRequest{File: r.file(), Offset: r.int()}
	case kindSnapshotFileChunk:
		return SnapshotFileChunk{File: r.file(), VV: r.vector(), Base: r.countMap(),
			PrefixMeta: r.float(), Offset: r.int(), End: r.int(), Updates: r.updates()}
	case kindFSWrite:
		return FSWrite{File: r.file(), Token: r.varint(), Op: r.str(), Data: r.blob(), Meta: r.float()}
	case kindFSWriteAck:
		return FSWriteAck{File: r.file(), Token: r.varint(), Key: r.str()}
	case kindFSRead:
		return FSRead{File: r.file(), Token: r.varint()}
	case kindFSReadReply:
		return FSReadReply{File: r.file(), Token: r.varint(), Updates: r.updates(), Level: r.float()}
	}
	r.fail(fmt.Sprintf("unknown message kind %d", kind))
	return nil
}

// ---- sizing ----

// Measure returns the envelope's wire kind code, in [1, NumKinds), and its
// encoded size in bytes — len of what AppendTo would append — without
// encoding it: a walk of the same field lists that adds up lengths,
// writes nothing and sorts no map (a count map's size does not depend on
// its order). FuzzSizeMatchesEncoding holds it to the encoder. A counter
// indexes an array by the code instead of hashing the Kind string. An
// envelope the codec cannot encode (a nil or unknown message) has code 0
// and is charged a nominal 64 bytes rather than failing a send.
func Measure(e Envelope) (code, size int) {
	kind, n := sizeMsg(e.Msg)
	if kind == kindInvalid {
		return 0, 64
	}
	// magic, version, From, To, kind, payload
	return int(kind), 2 + nodeLen(e.From) + nodeLen(e.To) + 1 + n
}

// Size returns the envelope's encoded size in bytes (see Measure).
func Size(e Envelope) int {
	_, n := Measure(e)
	return n
}

// Sizer measures encoded message sizes for callers that hold one; it keeps
// no state, and Size is the same measurement.
type Sizer struct{}

// NewSizer returns a ready-to-use Sizer.
func NewSizer() *Sizer { return &Sizer{} }

// Size returns the encoded size in bytes of the envelope (see Size).
func (*Sizer) Size(e Envelope) int { return Size(e) }

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's zig-zag encoding.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

func intLen(x int) int { return varintLen(int64(x)) }

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func bytesLen(p []byte) int { return uvarintLen(uint64(len(p))) + len(p) }

func nodeLen(n id.NodeID) int { return varintLen(int64(n)) }

func fileLen(f id.FileID) int { return stringLen(string(f)) }

func tcLen(tc tracing.Context) int { return uvarintLen(tc.Trace) + uvarintLen(tc.Span) }

const (
	floatLen  = 8
	tripleLen = 3 * floatLen
)

func stampsLen(stamps []vv.Stamp) int {
	n := uvarintLen(uint64(len(stamps)))
	prev := int64(0)
	for i, s := range stamps {
		if i == 0 {
			n += varintLen(int64(s))
		} else {
			n += varintLen(int64(s) - prev)
		}
		prev = int64(s)
	}
	return n
}

func vectorLen(v *vv.Vector) int {
	if v == nil {
		return 1
	}
	n := 1 + floatLen + tripleLen + uvarintLen(uint64(v.Len()))
	for w, e := range v.Entries {
		n += nodeLen(w) + intLen(e.Count) + intLen(e.Base) + varintLen(int64(e.Watermark)) + stampsLen(e.Stamps)
	}
	return n
}

func countMapLen(m map[id.NodeID]int) int {
	if m == nil {
		return 1
	}
	n := 1 + uvarintLen(uint64(len(m)))
	for w, c := range m {
		n += nodeLen(w) + intLen(c)
	}
	return n
}

func updateLen(u Update) int {
	return fileLen(u.File) + nodeLen(u.Writer) + intLen(u.Seq) + varintLen(int64(u.At)) +
		floatLen + stringLen(u.Op) + bytesLen(u.Data) + tcLen(u.TC)
}

func updatesLen(us []Update) int {
	n := uvarintLen(uint64(len(us)))
	for _, u := range us {
		n += updateLen(u)
	}
	return n
}

func candidatesLen(cs []Candidate) int {
	n := uvarintLen(uint64(len(cs)))
	for _, c := range cs {
		n += nodeLen(c.Node) + floatLen + intLen(c.Epoch)
	}
	return n
}

func membersLen(ms []MemberRecord) int {
	n := uvarintLen(uint64(len(ms)))
	for _, m := range ms {
		n += nodeLen(m.Node) + stringLen(m.Addr) + 1 + intLen(m.Inc)
	}
	return n
}

func digestLen(d GossipDigest) int {
	return fileLen(d.File) + nodeLen(d.Origin) + intLen(d.Round) + intLen(d.TTL) +
		vectorLen(d.VV) + countMapLen(d.Stable) + tcLen(d.TC)
}

// sizeMsg returns the kind byte appendEnvelope writes for msg and the
// length of the payload after it, field for field; the kind is
// kindInvalid for a message it rejects.
func sizeMsg(msg Message) (kind byte, n int) {
	switch m := msg.(type) {
	case DetectRequest:
		return kindDetectRequest, fileLen(m.File) + varintLen(m.Token) + vectorLen(m.VV) + tcLen(m.TC)
	case DetectReply:
		return kindDetectReply, fileLen(m.File) + varintLen(m.Token) + vectorLen(m.VV) + tcLen(m.TC)
	case GossipDigest:
		return kindGossipDigest, digestLen(m)
	case DigestBatch:
		n = uvarintLen(uint64(len(m.Digests)))
		for _, d := range m.Digests {
			n += digestLen(d)
		}
		return kindDigestBatch, n
	case GossipReport:
		return kindGossipReport, fileLen(m.File) + nodeLen(m.Origin) + nodeLen(m.Reporter) + intLen(m.Round) + vectorLen(m.VV) + tcLen(m.TC)
	case RansubCollect:
		return kindRansubCollect, fileLen(m.File) + intLen(m.Epoch) + candidatesLen(m.Sample)
	case RansubDistribute:
		return kindRansubDistribute, fileLen(m.File) + intLen(m.Epoch) + candidatesLen(m.Sample)
	case CallForAttention:
		return kindCallForAttention, fileLen(m.File) + nodeLen(m.Initiator) + varintLen(m.Token) + tcLen(m.TC)
	case CFAAck:
		return kindCFAAck, fileLen(m.File) + varintLen(m.Token) + 1
	case CFACancel:
		return kindCFACancel, fileLen(m.File) + varintLen(m.Token)
	case CollectRequest:
		return kindCollectRequest, fileLen(m.File) + varintLen(m.Token) + vectorLen(m.VV) + tcLen(m.TC)
	case CollectReply:
		return kindCollectReply, fileLen(m.File) + varintLen(m.Token) + vectorLen(m.VV) + updatesLen(m.Updates) + tcLen(m.TC)
	case Inform:
		return kindInform, fileLen(m.File) + varintLen(m.Token) + nodeLen(m.Winner) + vectorLen(m.VV) + updatesLen(m.Updates) + tcLen(m.TC)
	case InformAck:
		return kindInformAck, fileLen(m.File) + varintLen(m.Token)
	case AntiEntropyRequest:
		return kindAntiEntropyRequest, fileLen(m.File) + vectorLen(m.VV)
	case AntiEntropyReply:
		return kindAntiEntropyReply, fileLen(m.File) + vectorLen(m.VV) + updatesLen(m.Updates)
	case StrongWrite:
		return kindStrongWrite, fileLen(m.File) + updateLen(m.Update)
	case StrongReplicate:
		return kindStrongReplicate, fileLen(m.File) + updateLen(m.Update) + intLen(m.Commit)
	case StrongAck:
		return kindStrongAck, fileLen(m.File) + intLen(m.Commit)
	case StrongCommitted:
		return kindStrongCommitted, fileLen(m.File) + updateLen(m.Update)
	case SwimPing:
		return kindSwimPing, varintLen(m.Seq) + stringLen(m.Addr) + membersLen(m.Piggyback)
	case SwimAck:
		return kindSwimAck, varintLen(m.Seq) + nodeLen(m.Acker) + membersLen(m.Piggyback)
	case SwimPingReq:
		return kindSwimPingReq, varintLen(m.Seq) + nodeLen(m.Target) + membersLen(m.Piggyback)
	case SwimLeave:
		return kindSwimLeave, nodeLen(m.Node) + intLen(m.Inc)
	case JoinRequest:
		return kindJoinRequest, nodeLen(m.Node) + stringLen(m.Addr)
	case JoinReply:
		return kindJoinReply, membersLen(m.Members)
	case SnapshotRequest:
		return kindSnapshotRequest, 0
	case SnapshotManifest:
		n = uvarintLen(uint64(len(m.Files)))
		for _, file := range m.Files {
			n += fileLen(file)
		}
		return kindSnapshotManifest, n
	case SnapshotFileRequest:
		return kindSnapshotFileRequest, fileLen(m.File) + intLen(m.Offset)
	case SnapshotFileChunk:
		return kindSnapshotFileChunk, fileLen(m.File) + vectorLen(m.VV) + countMapLen(m.Base) + floatLen + intLen(m.Offset) + intLen(m.End) + updatesLen(m.Updates)
	case FSWrite:
		return kindFSWrite, fileLen(m.File) + varintLen(m.Token) + stringLen(m.Op) + bytesLen(m.Data) + floatLen
	case FSWriteAck:
		return kindFSWriteAck, fileLen(m.File) + varintLen(m.Token) + stringLen(m.Key)
	case FSRead:
		return kindFSRead, fileLen(m.File) + varintLen(m.Token)
	case FSReadReply:
		return kindFSReadReply, fileLen(m.File) + varintLen(m.Token) + updatesLen(m.Updates) + floatLen
	}
	return kindInvalid, 0
}
