// Hand-rolled binary codec for the wire envelope. Each message kind's
// fields are listed once, in the switch of (*coder).envelope, and a coder
// walks that list in one of three modes:
//
//   - encoding appends the fields to a buffer: the caller's (AppendTo) or
//     a pooled frame's (EncodeFrame / Frame.Release), so steady-state
//     encoding allocates nothing;
//   - sizing adds up the bytes encoding would append, writing nothing
//     (Measure, the simulator's byte accounting);
//   - decoding fills the fields in from a frame in one bounds-checked
//     pass that copies every byte payload out, so a decoded envelope
//     never aliases its input and read buffers can be pooled and reused
//     as soon as Decode returns.
//
// A field coder such as c.file(&m.File) takes a pointer to the field and
// reads it (encoding, sizing) or sets it (decoding), so adding a field to
// a message is one line in its list (plus a codecVersion bump). Where the
// modes really differ, or a call per field would cost more than the
// fields, the mode switch sits around a whole per-mode atom instead: a
// version vector (its stamps delta-coded), a count map (sorted only when
// encoding), a trace context, the frame header, an update, a gossip
// digest, and the decoder's bounds-checked reads. An atom's decoding
// branch is its field list; its encoding and sizing branches follow that
// order in one expression each, and the byte pins and
// FuzzSizeMatchesEncoding hold the three to each other.
//
// Wire format (all multi-byte integers are varints unless noted):
//
//	magic (1B) | version (1B) | From | To | kind (1B) | payload
//
// A payload's fields follow its field list. A vector ships a presence
// byte, Meta and Err as fixed 8-byte floats, then its entries in
// ascending writer order; per-entry stamps are delta-encoded, exploiting
// the vv invariant that stamp windows are non-decreasing. A count map
// (GossipDigest.Stable, SnapshotFileChunk.Base) ships a presence byte and
// its pairs sorted by key: Go's map iteration order must never reach the
// wire (the internal/invariants determinism rule). Strings, byte slices
// and sequences are length-prefixed. A frame must be consumed exactly:
// trailing bytes are a decode error.
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

// blank holds each kind's zero message: decoding walks a copy of the one
// its frame's kind byte names.
var blank = [NumKinds]Message{
	kindDetectRequest:       DetectRequest{},
	kindDetectReply:         DetectReply{},
	kindGossipDigest:        GossipDigest{},
	kindDigestBatch:         DigestBatch{},
	kindGossipReport:        GossipReport{},
	kindRansubCollect:       RansubCollect{},
	kindRansubDistribute:    RansubDistribute{},
	kindCallForAttention:    CallForAttention{},
	kindCFAAck:              CFAAck{},
	kindCFACancel:           CFACancel{},
	kindCollectRequest:      CollectRequest{},
	kindCollectReply:        CollectReply{},
	kindInform:              Inform{},
	kindInformAck:           InformAck{},
	kindAntiEntropyRequest:  AntiEntropyRequest{},
	kindAntiEntropyReply:    AntiEntropyReply{},
	kindStrongWrite:         StrongWrite{},
	kindStrongReplicate:     StrongReplicate{},
	kindStrongAck:           StrongAck{},
	kindStrongCommitted:     StrongCommitted{},
	kindSwimPing:            SwimPing{},
	kindSwimAck:             SwimAck{},
	kindSwimPingReq:         SwimPingReq{},
	kindSwimLeave:           SwimLeave{},
	kindJoinRequest:         JoinRequest{},
	kindJoinReply:           JoinReply{},
	kindSnapshotRequest:     SnapshotRequest{},
	kindSnapshotManifest:    SnapshotManifest{},
	kindSnapshotFileRequest: SnapshotFileRequest{},
	kindSnapshotFileChunk:   SnapshotFileChunk{},
	kindFSWrite:             FSWrite{},
	kindFSWriteAck:          FSWriteAck{},
	kindFSRead:              FSRead{},
	kindFSReadReply:         FSReadReply{},
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
	buf  []byte
	keys []id.NodeID // count-map sort scratch, kept warm with the buffer
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
	c := coder{mode: encoding, b: append(f.buf[:0], headroomZeros[:headroom]...), keys: &f.keys}
	c.envelope(&e)
	f.buf = c.b
	if c.err != nil {
		f.buf = f.buf[:0]
		f.Release()
		return nil, fmt.Errorf("wire: encode: %w", c.err)
	}
	return f, nil
}

var keysPool = sync.Pool{New: func() any { return new([]id.NodeID) }}

// AppendTo appends the encoded envelope to buf and returns the extended
// slice, growing it as needed. This is the zero-copy building block:
// callers that already own a destination buffer (a pending per-peer
// write buffer, a journal page) encode straight into it. On error buf is
// returned as it was.
func (e Envelope) AppendTo(buf []byte) ([]byte, error) {
	c := coder{mode: encoding, b: buf, keys: keysPool.Get().(*[]id.NodeID)}
	c.envelope(&e)
	keysPool.Put(c.keys)
	if c.err != nil {
		return buf, fmt.Errorf("wire: encode: %w", c.err)
	}
	return c.b, nil
}

// Encode encodes an envelope into a fresh buffer of exactly its size: one
// allocation. It remains for compatibility and tests; hot paths use
// EncodeFrame or AppendTo, which reuse buffers instead of allocating one
// per frame.
func Encode(e Envelope) ([]byte, error) {
	return e.AppendTo(make([]byte, 0, Size(e)))
}

// Decode decodes a frame produced by Encode/AppendTo/EncodeFrame. The
// returned envelope shares no memory with b: every string and byte
// slice is copied out, so b may come from (and immediately return to) a
// pooled read buffer.
func Decode(b []byte) (Envelope, error) {
	c := coder{mode: decoding, b: b}
	var e Envelope
	c.envelope(&e)
	if c.err == nil && c.off != len(b) {
		c.fail(fmt.Sprintf("%d trailing bytes", len(b)-c.off))
	}
	if c.err != nil {
		return Envelope{}, fmt.Errorf("wire: decode: %w", c.err)
	}
	return e, nil
}

// AppendUpdate appends u's encoding to b: the one field list for an
// update, shared by every message that carries one and by the store's
// on-disk journal.
func AppendUpdate(b []byte, u Update) []byte {
	c := coder{mode: encoding, b: b}
	c.update(&u)
	return c.b
}

// DecodeUpdate decodes exactly one AppendUpdate encoding. Like Decode,
// the result shares no memory with b.
func DecodeUpdate(b []byte) (Update, error) {
	c := coder{mode: decoding, b: b}
	var u Update
	c.update(&u)
	if c.err == nil && c.off != len(b) {
		c.fail("trailing bytes")
	}
	if c.err != nil {
		return Update{}, fmt.Errorf("wire: decode update: %w", c.err)
	}
	return u, nil
}

// Measure returns the envelope's wire kind code, in [1, NumKinds), and its
// encoded size in bytes — len of what AppendTo would append — without
// encoding it: the sizing walk of the same field lists writes nothing and
// sorts no map (a count map's size does not depend on its order).
// FuzzSizeMatchesEncoding holds it to the encoder. A counter indexes an
// array by the code instead of hashing the Kind string. An envelope the
// codec cannot encode (a nil or unknown message) has code 0 and is
// charged a nominal 64 bytes rather than failing a send.
func Measure(e Envelope) (code, size int) {
	c := coder{mode: sizing}
	c.envelope(&e)
	if c.err != nil {
		return 0, 64
	}
	return int(c.code), c.n
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

// ---- the field lists ----

// envelope walks the frame header, then the message's kind byte and
// fields. Decoding picks the message to fill in by the kind byte. The
// walk is total over the message set in wire.go: a nil or unknown message
// is an error, never a panic.
func (c *coder) envelope(e *Envelope) {
	c.header(e)
	if c.mode == decoding {
		k := c.readByte()
		if int(k) >= NumKinds || blank[k] == nil {
			c.fail(fmt.Sprintf("unknown message kind %d", k))
			return
		}
		c.code, e.Msg = k, blank[k]
	}
	switch m := e.Msg.(type) {
	case DetectRequest:
		c.kind(kindDetectRequest)
		c.file(&m.File)
		c.varint(&m.Token)
		c.vector(&m.VV)
		c.tc(&m.TC)
		done(c, e, &m)
	case DetectReply:
		c.kind(kindDetectReply)
		c.file(&m.File)
		c.varint(&m.Token)
		c.vector(&m.VV)
		c.tc(&m.TC)
		done(c, e, &m)
	case GossipDigest:
		c.kind(kindGossipDigest)
		c.digest(&m)
		done(c, e, &m)
	case DigestBatch:
		c.kind(kindDigestBatch)
		seq(c, &m.Digests, minDigestBytes)
		for i := range m.Digests {
			c.digest(&m.Digests[i])
		}
		done(c, e, &m)
	case GossipReport:
		c.kind(kindGossipReport)
		c.file(&m.File)
		c.node(&m.Origin)
		c.node(&m.Reporter)
		c.int(&m.Round)
		c.vector(&m.VV)
		c.tc(&m.TC)
		done(c, e, &m)
	case RansubCollect:
		c.kind(kindRansubCollect)
		c.file(&m.File)
		c.int(&m.Epoch)
		c.candidates(&m.Sample)
		done(c, e, &m)
	case RansubDistribute:
		c.kind(kindRansubDistribute)
		c.file(&m.File)
		c.int(&m.Epoch)
		c.candidates(&m.Sample)
		done(c, e, &m)
	case CallForAttention:
		c.kind(kindCallForAttention)
		c.file(&m.File)
		c.node(&m.Initiator)
		c.varint(&m.Token)
		c.tc(&m.TC)
		done(c, e, &m)
	case CFAAck:
		c.kind(kindCFAAck)
		c.file(&m.File)
		c.varint(&m.Token)
		c.bool(&m.OK)
		done(c, e, &m)
	case CFACancel:
		c.kind(kindCFACancel)
		c.file(&m.File)
		c.varint(&m.Token)
		done(c, e, &m)
	case CollectRequest:
		c.kind(kindCollectRequest)
		c.file(&m.File)
		c.varint(&m.Token)
		c.vector(&m.VV)
		c.tc(&m.TC)
		done(c, e, &m)
	case CollectReply:
		c.kind(kindCollectReply)
		c.file(&m.File)
		c.varint(&m.Token)
		c.vector(&m.VV)
		c.updates(&m.Updates)
		c.tc(&m.TC)
		done(c, e, &m)
	case Inform:
		c.kind(kindInform)
		c.file(&m.File)
		c.varint(&m.Token)
		c.node(&m.Winner)
		c.vector(&m.VV)
		c.updates(&m.Updates)
		c.tc(&m.TC)
		done(c, e, &m)
	case InformAck:
		c.kind(kindInformAck)
		c.file(&m.File)
		c.varint(&m.Token)
		done(c, e, &m)
	case AntiEntropyRequest:
		c.kind(kindAntiEntropyRequest)
		c.file(&m.File)
		c.vector(&m.VV)
		done(c, e, &m)
	case AntiEntropyReply:
		c.kind(kindAntiEntropyReply)
		c.file(&m.File)
		c.vector(&m.VV)
		c.updates(&m.Updates)
		done(c, e, &m)
	case StrongWrite:
		c.kind(kindStrongWrite)
		c.file(&m.File)
		c.update(&m.Update)
		done(c, e, &m)
	case StrongReplicate:
		c.kind(kindStrongReplicate)
		c.file(&m.File)
		c.update(&m.Update)
		c.int(&m.Commit)
		done(c, e, &m)
	case StrongAck:
		c.kind(kindStrongAck)
		c.file(&m.File)
		c.int(&m.Commit)
		done(c, e, &m)
	case StrongCommitted:
		c.kind(kindStrongCommitted)
		c.file(&m.File)
		c.update(&m.Update)
		done(c, e, &m)
	case SwimPing:
		c.kind(kindSwimPing)
		c.varint(&m.Seq)
		c.str(&m.Addr)
		c.members(&m.Piggyback)
		done(c, e, &m)
	case SwimAck:
		c.kind(kindSwimAck)
		c.varint(&m.Seq)
		c.node(&m.Acker)
		c.members(&m.Piggyback)
		done(c, e, &m)
	case SwimPingReq:
		c.kind(kindSwimPingReq)
		c.varint(&m.Seq)
		c.node(&m.Target)
		c.members(&m.Piggyback)
		done(c, e, &m)
	case SwimLeave:
		c.kind(kindSwimLeave)
		c.node(&m.Node)
		c.int(&m.Inc)
		done(c, e, &m)
	case JoinRequest:
		c.kind(kindJoinRequest)
		c.node(&m.Node)
		c.str(&m.Addr)
		done(c, e, &m)
	case JoinReply:
		c.kind(kindJoinReply)
		c.members(&m.Members)
		done(c, e, &m)
	case SnapshotRequest:
		c.kind(kindSnapshotRequest)
		done(c, e, &m)
	case SnapshotManifest:
		c.kind(kindSnapshotManifest)
		seq(c, &m.Files, 1)
		for i := range m.Files {
			c.file(&m.Files[i])
		}
		done(c, e, &m)
	case SnapshotFileRequest:
		c.kind(kindSnapshotFileRequest)
		c.file(&m.File)
		c.int(&m.Offset)
		done(c, e, &m)
	case SnapshotFileChunk:
		c.kind(kindSnapshotFileChunk)
		c.file(&m.File)
		c.vector(&m.VV)
		c.countMap(&m.Base)
		c.float(&m.PrefixMeta)
		c.int(&m.Offset)
		c.int(&m.End)
		c.updates(&m.Updates)
		done(c, e, &m)
	case FSWrite:
		c.kind(kindFSWrite)
		c.file(&m.File)
		c.varint(&m.Token)
		c.str(&m.Op)
		c.blob(&m.Data)
		c.float(&m.Meta)
		done(c, e, &m)
	case FSWriteAck:
		c.kind(kindFSWriteAck)
		c.file(&m.File)
		c.varint(&m.Token)
		c.str(&m.Key)
		done(c, e, &m)
	case FSRead:
		c.kind(kindFSRead)
		c.file(&m.File)
		c.varint(&m.Token)
		done(c, e, &m)
	case FSReadReply:
		c.kind(kindFSReadReply)
		c.file(&m.File)
		c.varint(&m.Token)
		c.updates(&m.Updates)
		c.float(&m.Level)
		done(c, e, &m)
	case nil:
		c.fail("nil message")
	default:
		c.err = fmt.Errorf("unknown message type %T", e.Msg)
	}
}

// done ends a message's walk. Only decoding stores (and so boxes) the
// message it filled in; encoding and sizing walked a copy and box nothing.
func done[T Message](c *coder, e *Envelope, m *T) {
	if c.mode == decoding {
		e.Msg = *m
	}
}

// header codes the frame header, a per-mode atom: magic, version, From
// and To.
func (c *coder) header(e *Envelope) {
	switch c.mode {
	case encoding:
		c.b = binary.AppendVarint(binary.AppendVarint(append(c.b, codecMagic, codecVersion), int64(e.From)), int64(e.To))
	case sizing:
		c.n += 2 + varintLen(int64(e.From)) + varintLen(int64(e.To))
	default:
		if c.readByte() != codecMagic || c.readByte() != codecVersion {
			c.fail("bad frame magic/version")
		}
		e.From, e.To = id.NodeID(c.readVarint()), id.NodeID(c.readVarint())
	}
}

// update codes an update, a per-mode atom: it is the journal's record and
// the bulk of every resolution frame, and a call per field costs more than
// its fields. The decoding branch is the field list the other two follow.
func (c *coder) update(u *Update) {
	switch c.mode {
	case encoding:
		b := binary.AppendVarint(appendRun(c.b, u.File), int64(u.Writer))
		b = binary.AppendVarint(binary.AppendVarint(b, int64(u.Seq)), int64(u.At))
		b = appendRun(appendRun(appendFloat(b, u.Meta), u.Op), u.Data)
		c.b = binary.AppendUvarint(binary.AppendUvarint(b, u.TC.Trace), u.TC.Span)
	case sizing:
		c.n += runLen(u.File) + varintLen(int64(u.Writer)) + varintLen(int64(u.Seq)) + varintLen(int64(u.At)) +
			8 + runLen(u.Op) + runLen(u.Data) + uvarintLen(u.TC.Trace) + uvarintLen(u.TC.Span)
	default:
		c.file(&u.File)
		c.node(&u.Writer)
		c.int(&u.Seq)
		c.varint((*int64)(&u.At))
		c.float(&u.Meta)
		c.str(&u.Op)
		c.blob(&u.Data)
		c.tc(&u.TC)
	}
}

// digest codes a gossip digest, the bulk of the simulator's traffic: a
// per-mode atom, like an update.
func (c *coder) digest(d *GossipDigest) {
	switch c.mode {
	case encoding:
		b := binary.AppendVarint(appendRun(c.b, d.File), int64(d.Origin))
		b = binary.AppendVarint(binary.AppendVarint(b, int64(d.Round)), int64(d.TTL))
		b = appendCountMap(appendVector(b, d.VV), d.Stable, c.keys)
		c.b = binary.AppendUvarint(binary.AppendUvarint(b, d.TC.Trace), d.TC.Span)
	case sizing:
		c.n += runLen(d.File) + varintLen(int64(d.Origin)) + varintLen(int64(d.Round)) + varintLen(int64(d.TTL)) +
			vectorLen(d.VV) + countMapLen(d.Stable) + uvarintLen(d.TC.Trace) + uvarintLen(d.TC.Span)
	default:
		c.file(&d.File)
		c.node(&d.Origin)
		c.int(&d.Round)
		c.int(&d.TTL)
		c.vector(&d.VV)
		c.countMap(&d.Stable)
		c.tc(&d.TC)
	}
}

func (c *coder) updates(us *[]Update) {
	seq(c, us, minUpdateBytes)
	for i := range *us {
		c.update(&(*us)[i])
	}
}

func (c *coder) candidates(cs *[]Candidate) {
	seq(c, cs, minCandBytes)
	for i := range *cs {
		x := &(*cs)[i]
		c.node(&x.Node)
		c.float(&x.Temp)
		c.int(&x.Epoch)
	}
}

func (c *coder) members(ms *[]MemberRecord) {
	seq(c, ms, minMemberBytes)
	for i := range *ms {
		m := &(*ms)[i]
		c.node(&m.Node)
		c.str(&m.Addr)
		c.u8((*byte)(&m.Status))
		c.int(&m.Inc)
	}
}

// tc codes a trace context: Trace, then Span, as uvarints.
func (c *coder) tc(tc *tracing.Context) {
	switch c.mode {
	case encoding:
		c.b = binary.AppendUvarint(binary.AppendUvarint(c.b, tc.Trace), tc.Span)
	case sizing:
		c.n += uvarintLen(tc.Trace) + uvarintLen(tc.Span)
	default:
		tc.Trace, tc.Span = c.readUvarint(), c.readUvarint()
	}
}

// vector codes an optional version vector, a per-mode atom: a presence
// byte, then Meta and Err as fixed floats and the entries.
func (c *coder) vector(p **vv.Vector) {
	switch c.mode {
	case encoding:
		c.b = appendVector(c.b, *p)
	case sizing:
		c.n += vectorLen(*p)
	default:
		*p = c.readVector()
	}
}

// countMap codes an optional writer-to-count map, a per-mode atom: a
// presence byte, then the pairs in ascending writer order.
func (c *coder) countMap(p *map[id.NodeID]int) {
	switch c.mode {
	case encoding:
		c.b = appendCountMap(c.b, *p, c.keys)
	case sizing:
		c.n += countMapLen(*p)
	default:
		*p = c.readCountMap()
	}
}

// ---- the coder and its field coders ----

type mode uint8

const (
	encoding mode = iota
	sizing
	decoding
)

// coder walks field lists. A field coder appends its field (encoding),
// counts its bytes (sizing) or reads it from the frame into the field
// (decoding); only decoding writes through the field pointer, so encoding
// and sizing are read-only on the message, which other goroutines may be
// encoding at the same time. A decoding failure latches err; reads after
// it return zero values, so the walk runs straight through and the caller
// checks err once.
type coder struct {
	mode mode
	b    []byte       // encoding: the bytes so far; decoding: the frame
	off  int          // decoding: the next byte to read
	n    int          // sizing: the bytes counted so far
	code byte         // the kind code of the message walked
	err  error        // the first failure
	keys *[]id.NodeID // encoding an envelope: scratch for sorting a count map's keys
}

// kind codes a message's kind byte. Decoding has read it already, to
// pick the message it walks, and checks that blank picked this case.
func (c *coder) kind(k byte) {
	switch c.mode {
	case encoding:
		c.b = append(c.b, k)
	case sizing:
		c.n++
	default:
		if k != c.code {
			c.fail("kind table mismatch")
		}
	}
	c.code = k
}

func (c *coder) u8(p *byte) {
	switch c.mode {
	case encoding:
		c.b = append(c.b, *p)
	case sizing:
		c.n++
	default:
		*p = c.readByte()
	}
}

func (c *coder) bool(p *bool) {
	switch c.mode {
	case encoding:
		if *p {
			c.b = append(c.b, 1)
		} else {
			c.b = append(c.b, 0)
		}
	case sizing:
		c.n++
	default:
		*p = c.readByte() != 0
	}
}

// varint codes a signed integer as binary.AppendVarint's zig-zag varint.
func (c *coder) varint(p *int64) {
	switch c.mode {
	case encoding:
		c.b = binary.AppendVarint(c.b, *p)
	case sizing:
		c.n += varintLen(*p)
	default:
		*p = c.readVarint()
	}
}

func (c *coder) int(p *int) {
	switch c.mode {
	case encoding:
		c.b = binary.AppendVarint(c.b, int64(*p))
	case sizing:
		c.n += varintLen(int64(*p))
	default:
		*p = int(c.readVarint())
	}
}

func (c *coder) node(p *id.NodeID) { c.varint((*int64)(p)) }

// float codes a float64 as its 8 IEEE-754 bytes, little-endian.
func (c *coder) float(p *float64) {
	switch c.mode {
	case encoding:
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
	case sizing:
		c.n += 8
	default:
		*p = c.readFloat()
	}
}

func (c *coder) str(p *string) {
	switch c.mode {
	case encoding:
		c.b = appendRun(c.b, *p)
	case sizing:
		c.n += runLen(*p)
	default:
		*p = string(c.run())
	}
}

func (c *coder) file(p *id.FileID) { c.str((*string)(p)) }

// blob codes a byte slice. Decoding copies it out of the frame (pooled
// read buffers must never be aliased by decoded messages); zero length
// decodes as nil.
func (c *coder) blob(p *[]byte) {
	switch c.mode {
	case encoding:
		c.b = appendRun(c.b, *p)
	case sizing:
		c.n += runLen(*p)
	default:
		if r := c.run(); r != nil {
			*p = make([]byte, len(r))
			copy(*p, r)
		}
	}
}

// seq codes a sequence's length prefix. Decoding replaces *p with that
// many zero elements for the caller's loop to fill in (nil for none),
// bounding the count by the input left: each element encodes in at least
// min bytes.
func seq[T any](c *coder, p *[]T, min int) {
	switch c.mode {
	case encoding:
		c.b = binary.AppendUvarint(c.b, uint64(len(*p)))
	case sizing:
		c.n += uvarintLen(uint64(len(*p)))
	default:
		*p = nil
		if n := c.length(min); n > 0 {
			*p = make([]T, n)
		}
	}
}

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

// ---- per-mode atoms: encoding ----

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendRun appends a length-prefixed string or byte slice.
func appendRun[T ~string | ~[]byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendVector(b []byte, v *vv.Vector) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = appendFloat(append(b, 1), v.Meta)
	b = appendFloat(b, v.Err.Numerical)
	b = appendFloat(b, v.Err.Order)
	b = appendFloat(b, v.Err.Staleness)
	// Entries yields writers in ascending order: the canonical order.
	b = binary.AppendUvarint(b, uint64(v.Len()))
	for w, e := range v.Entries {
		b = binary.AppendVarint(b, int64(w))
		b = binary.AppendVarint(b, int64(e.Count))
		b = binary.AppendVarint(b, int64(e.Base))
		b = binary.AppendVarint(b, int64(e.Watermark))
		b = appendStamps(b, e.Stamps)
	}
	return b
}

func appendStamps(b []byte, stamps []vv.Stamp) []byte {
	// vv invariant: stamp windows are non-decreasing, so deltas are
	// small non-negative numbers; zigzag varints keep hostile or buggy
	// inputs lossless anyway.
	b = binary.AppendUvarint(b, uint64(len(stamps)))
	prev := int64(0)
	for _, s := range stamps {
		b = binary.AppendVarint(b, int64(s)-prev)
		prev = int64(s)
	}
	return b
}

// appendCountMap sorts m's keys in scratch, which it keeps for reuse.
func appendCountMap(b []byte, m map[id.NodeID]int, scratch *[]id.NodeID) []byte {
	if m == nil {
		return append(b, 0)
	}
	keys := (*scratch)[:0]
	for n := range m {
		keys = append(keys, n)
	}
	slices.Sort(keys)
	*scratch = keys
	b = binary.AppendUvarint(append(b, 1), uint64(len(keys)))
	for _, n := range keys {
		b = binary.AppendVarint(b, int64(n))
		b = binary.AppendVarint(b, int64(m[n]))
	}
	return b
}

// ---- per-mode atoms: sizing ----

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint's zig-zag encoding.
func varintLen(x int64) int { return (bits.Len64(uint64(x^x>>63)) + 7) / 7 }

func runLen[T ~string | ~[]byte](s T) int { return uvarintLen(uint64(len(s))) + len(s) }

func vectorLen(v *vv.Vector) int {
	if v == nil {
		return 1
	}
	n := 1 + 4*8 + uvarintLen(uint64(v.Len())) // presence, Meta, Err, count
	for w, e := range v.Entries {
		n += varintLen(int64(w)) + varintLen(int64(e.Count)) + varintLen(int64(e.Base)) +
			varintLen(int64(e.Watermark)) + uvarintLen(uint64(len(e.Stamps)))
		prev := int64(0)
		for _, s := range e.Stamps {
			n += varintLen(int64(s) - prev)
			prev = int64(s)
		}
	}
	return n
}

// countMapLen sizes a count map in map order: the size does not depend
// on it.
func countMapLen(m map[id.NodeID]int) int {
	if m == nil {
		return 1
	}
	n := 1 + uvarintLen(uint64(len(m)))
	for w, c := range m {
		n += varintLen(int64(w)) + varintLen(int64(c))
	}
	return n
}

// ---- per-mode atoms: decoding ----

func (c *coder) fail(msg string) {
	if c.err == nil {
		c.err = errors.New(msg)
	}
}

func (c *coder) readByte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail("truncated frame")
		return 0
	}
	x := c.b[c.off]
	c.off++
	return x
}

func (c *coder) readUvarint() uint64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad uvarint")
		return 0
	}
	c.off += n
	return x
}

func (c *coder) readVarint() int64 {
	if c.err != nil {
		return 0
	}
	x, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail("bad varint")
		return 0
	}
	c.off += n
	return x
}

func (c *coder) readFloat() float64 {
	if c.err != nil {
		return 0
	}
	if len(c.b)-c.off < 8 {
		c.fail("truncated float")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return x
}

// length reads a count prefix for a sequence whose elements each occupy
// at least min encoded bytes, rejecting counts the remaining input
// cannot possibly satisfy. It multiplies rather than divides: n is at
// most the input left and min at most minUpdateBytes, so n*min cannot
// overflow for any frame that fits in memory.
func (c *coder) length(min int) int {
	n := c.readUvarint()
	if c.err != nil {
		return 0
	}
	if left := uint64(len(c.b) - c.off); n > left || n*uint64(max(min, 1)) > left {
		c.fail("length prefix exceeds frame")
		return 0
	}
	return int(n)
}

// run reads a length-prefixed byte run, returning it in place (nil when
// empty); callers copy it out before keeping it.
func (c *coder) run() []byte {
	n := c.length(1)
	if n == 0 {
		return nil
	}
	r := c.b[c.off : c.off+n]
	c.off += n
	return r
}

// readVector reads a vector, checking each entry against the vv count
// invariant.
func (c *coder) readVector() *vv.Vector {
	if c.readByte() == 0 {
		return nil
	}
	v := vv.New()
	v.Meta = c.readFloat()
	v.Err = vv.Triple{Numerical: c.readFloat(), Order: c.readFloat(), Staleness: c.readFloat()}
	n := c.length(minEntryBytes)
	v.Grow(n)
	for i := 0; i < n && c.err == nil; i++ {
		w := id.NodeID(c.readVarint())
		e := vv.Entry{Count: int(c.readVarint()), Base: int(c.readVarint()), Watermark: vv.Stamp(c.readVarint())}
		e.Stamps = c.readStamps()
		if c.err == nil && (e.Count < 0 || e.Base < 0 || e.Count != e.Base+len(e.Stamps)) {
			c.fail("vector entry violates count invariant")
		}
		if c.err != nil {
			return nil
		}
		v.AppendEntry(w, e)
	}
	// An honest encoder sends writers ascending, so this only checks; a
	// hostile frame's out-of-order or repeated writers are sorted once
	// (the last duplicate wins), never inserted one by one.
	v.SortEntries()
	return v
}

func (c *coder) readStamps() []vv.Stamp {
	n := c.length(1)
	if n == 0 {
		return nil
	}
	out := make([]vv.Stamp, n)
	prev := int64(0)
	for i := range out {
		prev += c.readVarint()
		out[i] = vv.Stamp(prev)
	}
	return out
}

func (c *coder) readCountMap() map[id.NodeID]int {
	if c.readByte() == 0 {
		return nil
	}
	n := c.length(minPairBytes)
	if c.err != nil {
		return nil
	}
	m := make(map[id.NodeID]int, n)
	for i := 0; i < n && c.err == nil; i++ {
		w := id.NodeID(c.readVarint())
		m[w] = int(c.readVarint())
	}
	return m
}
