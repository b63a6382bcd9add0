package wire

import (
	"testing"

	"idea/internal/id"
)

func BenchmarkEncodeDetectRequest(b *testing.B) {
	e := Envelope{From: 1, To: 2, Msg: DetectRequest{File: "f", Token: 1, VV: sampleVector()}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeDetectRequest(b *testing.B) {
	frame, err := Encode(Envelope{From: 1, To: 2, Msg: DetectRequest{File: "f", Token: 1, VV: sampleVector()}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSizer(b *testing.B) {
	s := NewSizer()
	e := Envelope{From: 1, To: 2, Msg: CFAAck{File: "f", Token: 1, OK: true}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Size(e)
	}
}

// BenchmarkSizeDigestBatch measures the size-only walk on the simulator's
// most frequent large frame, a gossip digest batch.
func BenchmarkSizeDigestBatch(b *testing.B) {
	e := benchDigestBatchEnvelope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Size(e)
	}
}

// benchUpdateEnvelope is the transport's hottest frame shape: a
// resolution Inform carrying updates with payloads.
func benchUpdateEnvelope() Envelope {
	us := make([]Update, 8)
	for i := range us {
		us[i] = Update{File: "f", Writer: 1, Seq: i + 1, At: 1e9, Meta: 5,
			Op: "draw", Data: []byte("0123456789abcdef0123456789abcdef")}
	}
	return Envelope{From: 1, To: 2, Msg: Inform{File: "f", Token: 7, Winner: 2,
		VV: sampleVector(), Updates: us}}
}

func benchDigestBatchEnvelope() Envelope {
	ds := make([]GossipDigest, 16)
	for i := range ds {
		ds[i] = GossipDigest{File: "f", Origin: 1, Round: 3, TTL: 2, VV: sampleVector(),
			Stable: map[id.NodeID]int{1: 1, 2: 1}}
	}
	return Envelope{From: 1, To: 2, Msg: DigestBatch{Digests: ds}}
}

// BenchmarkEncodeFrameUpdate measures the pooled encode path for an
// update-bearing frame. The contract, held by TestEncodeFrameAllocFree:
// 0 allocs/op.
func BenchmarkEncodeFrameUpdate(b *testing.B) {
	e := benchUpdateEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := EncodeFrame(e, 4)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

// BenchmarkEncodeFrameDigestBatch measures the pooled encode path for a
// gossip digest batch. The contract, held by TestEncodeFrameAllocFree:
// 0 allocs/op.
func BenchmarkEncodeFrameDigestBatch(b *testing.B) {
	e := benchDigestBatchEnvelope()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := EncodeFrame(e, 4)
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
}

func BenchmarkDecodeFrameUpdate(b *testing.B) {
	frame, err := Encode(benchUpdateEnvelope())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
