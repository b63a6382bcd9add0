package wire

import (
	"fmt"
	"testing"

	"idea/internal/id"
	"idea/internal/vv"
)

func sampleVector() *vv.Vector {
	v := vv.New()
	v.Tick(1, 1e9, 5)
	v.Tick(2, 3e9, 8)
	v.Err = vv.Triple{Numerical: 3, Order: 3, Staleness: 2}
	return v
}

// allMessages returns one instance of every protocol message.
func allMessages() []Message {
	u := Update{File: "f", Writer: 1, Seq: 1, At: 1e9, Meta: 5, Op: "draw", Data: []byte("x")}
	v := sampleVector()
	c := v.Counts() // resolution messages ship counts only
	mr := MemberRecord{Node: 3, Addr: "127.0.0.1:9", Status: MemberSuspect, Inc: 2}
	return []Message{
		DetectRequest{File: "f", Token: 1, VV: v},
		DetectReply{File: "f", Token: 1, VV: v},
		GossipDigest{File: "f", Origin: 1, Round: 2, TTL: 3, VV: v, Stable: map[id.NodeID]int{1: 1, 2: 1}},
		DigestBatch{Digests: []GossipDigest{
			{File: "f", Origin: 1, Round: 2, TTL: 3, VV: v},
			{File: "g", Origin: 1, Round: 2, TTL: 3, VV: v, Stable: map[id.NodeID]int{2: 1}},
		}},
		GossipReport{File: "f", Origin: 1, Reporter: 9, Round: 2, VV: v},
		RansubCollect{File: "f", Epoch: 4, Sample: []Candidate{{Node: 1, Temp: 2.5, Epoch: 3}}},
		RansubDistribute{File: "f", Epoch: 4, Sample: []Candidate{{Node: 2, Temp: 1.5}}},
		CallForAttention{File: "f", Initiator: 1, Token: 7},
		CFAAck{File: "f", Token: 7, OK: true},
		CFACancel{File: "f", Token: 7},
		CollectRequest{File: "f", Token: 7, VV: c},
		CollectReply{File: "f", Token: 7, VV: c, Updates: []Update{u}},
		Inform{File: "f", Token: 7, Winner: 2, VV: c, Updates: []Update{u}},
		InformAck{File: "f", Token: 7},
		AntiEntropyRequest{File: "f", VV: v},
		AntiEntropyReply{File: "f", VV: v, Updates: []Update{u}},
		StrongWrite{File: "f", Update: u},
		StrongReplicate{File: "f", Update: u, Commit: 3},
		StrongAck{File: "f", Commit: 3},
		StrongCommitted{File: "f", Update: u},
		SwimPing{Seq: 11, Addr: "127.0.0.1:7", Piggyback: []MemberRecord{mr}},
		SwimAck{Seq: 11, Acker: 3, Piggyback: []MemberRecord{mr}},
		SwimPingReq{Seq: 12, Target: 4, Piggyback: []MemberRecord{mr}},
		SwimLeave{Node: 3, Inc: 5},
		JoinRequest{Node: 6, Addr: "127.0.0.1:8"},
		JoinReply{Members: []MemberRecord{mr}},
		SnapshotRequest{},
		SnapshotManifest{Files: []id.FileID{"f", "g"}},
		SnapshotFileRequest{File: "f", Offset: 40},
		SnapshotFileChunk{File: "f", VV: v, Base: map[id.NodeID]int{1: 1}, PrefixMeta: 5,
			Offset: 1, End: 2, Updates: []Update{u}},
		FSWrite{File: "f", Token: 9, Op: "draw", Data: []byte("xy"), Meta: 7},
		FSWriteAck{File: "f", Token: 9, Key: "f/n1#1"},
		FSRead{File: "f", Token: 10},
		FSReadReply{File: "f", Token: 10, Updates: []Update{u}, Level: 0.4},
	}
}

func TestAllKindsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range allMessages() {
		k := m.Kind()
		if k == "" {
			t.Fatalf("%T has empty kind", m)
		}
		if seen[k] {
			t.Fatalf("duplicate kind %q", k)
		}
		seen[k] = true
	}
}

func TestEncodeDecodeRoundTripAll(t *testing.T) {
	for _, m := range allMessages() {
		frame, err := Encode(Envelope{From: 1, To: 2, Msg: m})
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if got.From != 1 || got.To != 2 {
			t.Fatalf("%T: routing lost", m)
		}
		if got.Msg.Kind() != m.Kind() {
			t.Fatalf("kind changed: %q → %q", m.Kind(), got.Msg.Kind())
		}
	}
}

func TestDecodePreservesVectorContent(t *testing.T) {
	frame, err := Encode(Envelope{From: 1, To: 2, Msg: DetectRequest{File: "f", Token: 9, VV: sampleVector()}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	req := e.Msg.(DetectRequest)
	if req.VV.Count(1) != 1 || req.VV.Count(2) != 1 || req.VV.Meta != 8 {
		t.Fatalf("vector mangled: %v", req.VV)
	}
	if req.VV.Err.Order != 3 {
		t.Fatalf("triple mangled: %v", req.VV.Err)
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	if _, err := Decode([]byte("not a gob frame")); err == nil {
		t.Fatal("garbage decoded successfully")
	}
}

func TestUpdateKey(t *testing.T) {
	u := Update{File: "board", Writer: 3, Seq: 7}
	if got := u.Key(); got != "board/n3#7" {
		t.Fatalf("key = %q", got)
	}
	v := Update{File: "board", Writer: 3, Seq: 8}
	if u.Key() == v.Key() || u.ID() == v.ID() {
		t.Fatal("distinct updates share a key")
	}
	if u.ID() != (Update{File: "board", Writer: 3, Seq: 7, Op: "other"}).ID() {
		t.Fatal("ID depends on more than file, writer and seq")
	}
	// Key is built without fmt; it must spell exactly what the fmt form
	// always did, long names and negative IDs included.
	for _, w := range []Update{
		{},
		{File: "a/b", Writer: -12, Seq: 0},
		{File: id.FileID(make([]byte, 100)), Writer: 1<<62 + 5, Seq: 1<<40 + 3},
	} {
		if got, want := w.Key(), fmt.Sprintf("%v/%v#%d", w.File, w.Writer, w.Seq); got != want {
			t.Fatalf("key = %q, want %q", got, want)
		}
	}
}

func TestSizerContextFree(t *testing.T) {
	// The binary codec has no per-stream state (no gob type
	// descriptors), so sizing is a pure function of the envelope and
	// must agree exactly with an actual encode.
	s := NewSizer()
	msg := CFAAck{File: "f", Token: 1, OK: true}
	first := s.Size(Envelope{From: 1, To: 2, Msg: msg})
	second := s.Size(Envelope{From: 1, To: 2, Msg: msg})
	if first <= 0 || second != first {
		t.Fatalf("sizes: %d, %d (want equal, positive)", first, second)
	}
	frame, err := Encode(Envelope{From: 1, To: 2, Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != first {
		t.Fatalf("Sizer says %dB, Encode produced %dB", first, len(frame))
	}
}

func TestSizerGrowsWithPayload(t *testing.T) {
	s := NewSizer()
	small := s.Size(Envelope{From: 1, To: 2, Msg: CollectReply{File: "f", VV: vv.New()}})
	big := CollectReply{File: "f", VV: sampleVector()}
	for i := 0; i < 50; i++ {
		big.Updates = append(big.Updates, Update{File: "f", Writer: id.NodeID(i), Seq: 1, Data: make([]byte, 100)})
	}
	large := s.Size(Envelope{From: 1, To: 2, Msg: big})
	if large <= small {
		t.Fatalf("bulk reply (%dB) not larger than empty (%dB)", large, small)
	}
	if large < 5000 {
		t.Fatalf("bulk reply only %dB for ~5KB of payload", large)
	}
}
