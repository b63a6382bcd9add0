package wire

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"time"

	"idea/internal/id"
	"idea/internal/vv"
)

// TestEncodeDecodeExact round-trips every message and requires the
// decoded value to be deeply equal to the original — not just the same
// kind. This pins the codec field-by-field: a field silently dropped
// from the binary encoding fails here immediately.
func TestEncodeDecodeExact(t *testing.T) {
	for _, m := range allMessages() {
		frame, err := Encode(Envelope{From: -7, To: 2, Msg: m})
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got.From != -7 || got.To != 2 {
			t.Fatalf("%T: routing lost: %+v", m, got)
		}
		if !reflect.DeepEqual(got.Msg, m) {
			t.Fatalf("%T round trip changed the message:\n in: %#v\nout: %#v", m, m, got.Msg)
		}
	}
}

// TestSizeMatchesEncoding checks the size-only walk against the encoder on
// every message kind, size and kind byte, with routing IDs on both sides
// of the varint length steps, and charges an unencodable envelope 64
// bytes under code 0.
func TestSizeMatchesEncoding(t *testing.T) {
	for _, m := range allMessages() {
		for _, from := range []id.NodeID{0, -1, 63, 64, -65, 1 << 40} {
			e := Envelope{From: from, To: 2, Msg: m}
			frame, err := Encode(e)
			if err != nil {
				t.Fatalf("%T: %v", m, err)
			}
			code, size := Measure(e)
			if size != len(frame) {
				t.Fatalf("%T from %d: Measure size = %d, encoding is %d bytes", m, from, size, len(frame))
			}
			if code != int(frame[3+varintLen(int64(from))]) {
				t.Fatalf("%T: Measure code = %d, encoding's kind byte is %d", m, code, frame[3+varintLen(int64(from))])
			}
		}
	}
	for _, e := range []Envelope{benchUpdateEnvelope(), benchDigestBatchEnvelope()} {
		frame, _ := Encode(e)
		if got := NewSizer().Size(e); got != len(frame) {
			t.Fatalf("%T: Sizer.Size = %d, encoding is %d bytes", e.Msg, got, len(frame))
		}
	}
	if code, size := Measure(Envelope{From: 1, To: 2}); code != 0 || size != 64 {
		t.Fatalf("nil message: Measure = %d, %d; want code 0 and the nominal 64 bytes", code, size)
	}
}

// TestKindTableMatchesCases holds blank, the kind-to-message table
// decoding starts from, to the kind byte each message's case codes: a
// message found under kind k must code as k and decode as its own type.
func TestKindTableMatchesCases(t *testing.T) {
	for k, m := range blank {
		if m == nil {
			continue
		}
		if code, _ := Measure(Envelope{Msg: m}); code != k {
			t.Fatalf("blank[%d] is a %T, which codes as kind %d", k, m, code)
		}
		frame, _ := Encode(Envelope{Msg: m})
		if got, err := Decode(frame); err != nil || reflect.TypeOf(got.Msg) != reflect.TypeOf(m) {
			t.Fatalf("kind %d: %T decoded as %T, %v", k, m, got.Msg, err)
		}
	}
}

// TestDecodeDoesNotAliasInput scribbles over the input frame after
// decoding and requires the decoded message to be unaffected — the
// contract that lets the transport pool and reuse read buffers.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	u := Update{File: "f", Writer: 1, Seq: 1, At: 1e9, Meta: 5, Op: "draw", Data: []byte("payload")}
	env := Envelope{From: 1, To: 2, Msg: Inform{File: "f", Token: 3, Winner: 2,
		VV: sampleVector(), Updates: []Update{u}}}
	frame, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	before, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), before...)
	for i := range frame {
		frame[i] = 0xFF
	}
	after, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(snapshot) {
		t.Fatal("decoded message changed when the input frame was overwritten: decoder aliased the input")
	}
}

// TestEncodeFrameHeadroom checks the pooled-frame front end: the
// requested headroom prefix is present and the payload after it is a
// valid frame identical to a plain Encode.
func TestEncodeFrameHeadroom(t *testing.T) {
	env := Envelope{From: 1, To: 2, Msg: CFAAck{File: "f", Token: 9, OK: true}}
	plain, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	f, err := EncodeFrame(env, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	b := f.Bytes()
	if len(b) != len(plain)+4 {
		t.Fatalf("frame length %d, want %d+4", len(b), len(plain))
	}
	if string(f.Payload(4)) != string(plain) {
		t.Fatal("frame payload differs from plain Encode")
	}
	if _, err := Decode(f.Payload(4)); err != nil {
		t.Fatalf("frame payload does not decode: %v", err)
	}
}

// TestFrameReuse releases and re-encodes through the pool repeatedly;
// contents must stay correct even when the same backing buffer is
// recycled across messages of different sizes.
func TestFrameReuse(t *testing.T) {
	msgs := allMessages()
	for i := 0; i < 4; i++ {
		for _, m := range msgs {
			f, err := EncodeFrame(Envelope{From: 1, To: 2, Msg: m}, 4)
			if err != nil {
				t.Fatalf("%T: %v", m, err)
			}
			got, err := Decode(f.Payload(4))
			if err != nil {
				t.Fatalf("%T: %v", m, err)
			}
			if !reflect.DeepEqual(got.Msg, m) {
				t.Fatalf("%T mangled through pooled frame", m)
			}
			f.Release()
		}
	}
}

// TestAppendToComposes encodes two envelopes back to back into one
// buffer — the pattern the per-peer pending buffer relies on — and
// checks each decodes from its own region.
func TestAppendToComposes(t *testing.T) {
	e1 := Envelope{From: 1, To: 2, Msg: CFACancel{File: "f", Token: 1}}
	e2 := Envelope{From: 2, To: 1, Msg: InformAck{File: "g", Token: 2}}
	buf, err := e1.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(buf)
	buf, err = e2.AppendTo(buf)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Decode(buf[:cut])
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(buf[cut:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1.Msg, e1.Msg) || !reflect.DeepEqual(d2.Msg, e2.Msg) {
		t.Fatal("composed encodes decoded wrong")
	}
}

// TestDecodeRejectsTrailingBytes: a frame must be consumed exactly.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	frame, err := Encode(Envelope{From: 1, To: 2, Msg: SnapshotRequest{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(frame, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecodeRejectsTruncation: every strict prefix of a valid frame
// must fail, never panic or succeed with a partial message.
func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range allMessages() {
		frame, err := Encode(Envelope{From: 1, To: 2, Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if _, err := Decode(frame[:cut]); err == nil {
				t.Fatalf("%T: truncation at %d/%d accepted", m, cut, len(frame))
			}
		}
	}
}

// TestDecodeRejectsHostileLengths: a length prefix larger than the
// remaining input must be rejected before any allocation is attempted.
func TestDecodeRejectsHostileLengths(t *testing.T) {
	// Hand-build a frame claiming 2^40 updates in a CollectReply.
	b := []byte{codecMagic, codecVersion}
	b = binary.AppendVarint(b, 1)      // From
	b = binary.AppendVarint(b, 2)      // To
	b = append(b, kindCollectReply)    // kind
	b = append(b, 1, 'f')              // File
	b = binary.AppendVarint(b, 7)      // Token
	b = append(b, 0)                   // nil VV
	b = binary.AppendUvarint(b, 1<<40) // updates length
	if _, err := Decode(b); err == nil {
		t.Fatal("hostile length prefix accepted")
	}
}

// TestDecodeRejectsInvalidVectorEntry: entries whose Count, Base and
// stamp window disagree violate the vv invariant and must not decode.
func TestDecodeRejectsInvalidVectorEntry(t *testing.T) {
	b := []byte{codecMagic, codecVersion}
	b = binary.AppendVarint(b, 1)
	b = binary.AppendVarint(b, 2)
	b = append(b, kindDetectRequest)
	b = append(b, 1, 'f')
	b = binary.AppendVarint(b, 1)  // Token
	b = vectorHeader(b, 0)         // VV present, Meta, Err
	b = binary.AppendUvarint(b, 1) // one entry
	b = binary.AppendVarint(b, 1)  // writer
	b = binary.AppendVarint(b, 5)  // Count = 5
	b = binary.AppendVarint(b, 0)  // Base = 0
	b = binary.AppendVarint(b, 0)  // Watermark
	b = binary.AppendUvarint(b, 1) // ...but only 1 stamp
	b = binary.AppendVarint(b, 9)
	b = binary.AppendUvarint(b, 0) // TC
	b = binary.AppendUvarint(b, 0)
	if _, err := Decode(b); err == nil {
		t.Fatal("count-invariant-violating vector accepted")
	}
}

// TestCountsVectorDecodesWithoutStamps: a counts-only vector (what
// resolution messages carry) round-trips exactly, and decoding it makes no
// stamp allocation — the whole vector costs exactly one more allocation
// per writer, its window.
func TestCountsVectorDecodesWithoutStamps(t *testing.T) {
	const writers = 8
	v := vv.New()
	for i := 0; i < 200; i++ {
		v.Tick(id.NodeID(i%writers+1), vv.Stamp(i+1)*1e6, float64(i))
	}
	decode := func(b []byte) *vv.Vector {
		out, err := decodeVector(b)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	counts := encodeVector(v.Counts())
	whole := encodeVector(v)
	if got := decode(counts); !reflect.DeepEqual(got, v.Counts()) {
		t.Fatalf("counts vector changed in the round trip:\n in: %v\nout: %v", v.Counts(), got)
	}
	countsAllocs := testing.AllocsPerRun(100, func() { decode(counts) })
	wholeAllocs := testing.AllocsPerRun(100, func() { decode(whole) })
	if wholeAllocs-countsAllocs != writers {
		t.Fatalf("decode allocs: whole %v, counts %v; want exactly %d stamp windows between them", wholeAllocs, countsAllocs, writers)
	}
}

// TestCountMapRoundTrip: the counts a digest's rollback floor reports
// come back exactly, nil and empty kept apart (nil means "nothing
// reported", empty a replica with no updates).
func TestCountMapRoundTrip(t *testing.T) {
	for _, stable := range []map[id.NodeID]int{
		nil,
		{},
		{1: 3, 2: 0, -4: 1 << 40, 9: 127},
	} {
		in := GossipDigest{File: "f", Origin: 1, VV: vv.New(), Stable: stable}
		frame, err := Encode(Envelope{From: 1, To: 2, Msg: in})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		// DeepEqual tells a nil map from an empty one.
		if out := got.Msg.(GossipDigest).Stable; !reflect.DeepEqual(out, stable) {
			t.Fatalf("Stable %#v came back as %#v", stable, out)
		}
	}
}

// TestVectorDeltaStampFidelity round-trips a vector with a compacted
// window and widely spaced stamps through the delta encoding.
func TestVectorDeltaStampFidelity(t *testing.T) {
	v := vv.New()
	for i := 0; i < 200; i++ {
		v.Tick(9, vv.Stamp(int64(i)*1e9), float64(i))
	}
	v.Compact(8)
	frame, err := Encode(Envelope{From: 1, To: 2, Msg: DetectRequest{File: "f", VV: v}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Msg.(DetectRequest).VV
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded vector invalid: %v", err)
	}
	want := v.Entry(9)
	have := got.Entry(9)
	if have.Count != want.Count || have.Base != want.Base || have.Watermark != want.Watermark {
		t.Fatalf("entry mangled: want %+v, got %+v", want, have)
	}
	for i, s := range want.Stamps {
		if have.Stamps[i] != s {
			t.Fatalf("stamp %d mangled: want %v, got %v", i, s, have.Stamps[i])
		}
	}
}

// TestDecodeUnsortedWriters: an encoder sends a vector's writers in
// ascending order, but a hand-built frame may list them in any order and
// repeat one. It decodes to the writer-sorted vector, the last duplicate
// winning, and re-encodes in ascending order.
func TestDecodeUnsortedWriters(t *testing.T) {
	type entry struct {
		w      id.NodeID
		stamps []vv.Stamp
	}
	frame := func(es ...entry) []byte {
		b := vectorHeader(nil, 7)
		b = binary.AppendUvarint(b, uint64(len(es)))
		for _, e := range es {
			b = binary.AppendVarint(b, int64(e.w))
			b = binary.AppendVarint(b, int64(len(e.stamps))) // count
			b = binary.AppendVarint(b, 0)                    // base
			b = binary.AppendVarint(b, 0)                    // watermark
			b = appendStamps(b, e.stamps)
		}
		return b
	}
	in := frame(entry{5, []vv.Stamp{50}}, entry{2, []vv.Stamp{20, 21}}, entry{9, []vv.Stamp{90}},
		entry{-3, []vv.Stamp{30}}, entry{2, []vv.Stamp{22}}, entry{1, []vv.Stamp{10}})
	got, err := decodeVector(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if e := got.Entry(2); e.Count != 1 || e.Stamps[0] != 22 {
		t.Fatalf("writer 2 decoded as %+v, want the last duplicate", e)
	}
	want := frame(entry{-3, []vv.Stamp{30}}, entry{1, []vv.Stamp{10}}, entry{2, []vv.Stamp{22}},
		entry{5, []vv.Stamp{50}}, entry{9, []vv.Stamp{90}})
	if out := encodeVector(got); !reflect.DeepEqual(out, want) {
		t.Fatalf("re-encoded as %x, want ascending %x", out, want)
	}
}

// TestDecodeDescendingWritersIsNotQuadratic: a frame that lists 200k
// distinct writers in descending order decodes in a fraction of a second
// (the bound leaves room for slow or race-instrumented runs). Inserting
// each writer in place would move every slot after it — about 10^12
// bytes of copying here, minutes of CPU — so the bound only holds if the
// decoder sorts the entries once.
func TestDecodeDescendingWritersIsNotQuadratic(t *testing.T) {
	const n = 200_000
	b := vectorHeader(nil, 0)
	b = binary.AppendUvarint(b, n)
	for w := n; w > 0; w-- {
		b = binary.AppendVarint(b, int64(w))
		b = binary.AppendVarint(b, 0) // count
		b = binary.AppendVarint(b, 0) // base
		b = binary.AppendVarint(b, 0) // watermark
		b = appendStamps(b, nil)
	}
	start := time.Now()
	got, err := decodeVector(b)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("decoded %d writers, want %d", got.Len(), n)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if took > 5*time.Second {
		t.Fatalf("decoding %d descending writers took %v", n, took)
	}
	t.Logf("decoded %d descending writers in %v", n, took)
}

// vectorHeader appends a present vector's presence byte, Meta and a zero
// Err: what precedes its entries.
func vectorHeader(b []byte, meta float64) []byte {
	b = binary.LittleEndian.AppendUint64(append(b, 1), math.Float64bits(meta))
	return append(b, make([]byte, 3*8)...)
}

// encodeVector returns a vector's encoding as a message field.
func encodeVector(v *vv.Vector) []byte {
	c := coder{mode: encoding}
	c.vector(&v)
	return c.b
}

// decodeVector decodes exactly one vector field.
func decodeVector(b []byte) (*vv.Vector, error) {
	c := coder{mode: decoding, b: b}
	var v *vv.Vector
	c.vector(&v)
	if c.err == nil && c.off != len(b) {
		c.fail("trailing bytes")
	}
	return v, c.err
}
