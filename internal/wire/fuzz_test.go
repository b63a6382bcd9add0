package wire

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the frame decoder: it must reject
// garbage with an error, never panic, and any accepted envelope must not
// alias the input buffer (the transport reuses pooled read buffers the
// moment Decode returns). Run with `go test -fuzz FuzzDecode`; the seed
// corpus (valid frames plus mutations) runs on every `go test`.
func FuzzDecode(f *testing.F) {
	for _, m := range allMessages() {
		frame, err := Encode(Envelope{From: 1, To: 2, Msg: m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		// A successful decode must yield a usable message.
		if e.Msg == nil {
			t.Fatal("nil message decoded without error")
		}
		_ = e.Msg.Kind()
		// No-alias contract: scribbling over the input after decode
		// must not change the decoded message. Compare re-encodes from
		// before and after the scribble.
		before, err := Encode(e)
		if err != nil {
			return // accepted-but-unencodable is round-trip fuzz's concern
		}
		snapshot := append([]byte(nil), before...)
		for i := range data {
			data[i] ^= 0xA5
		}
		after, err := Encode(e)
		if err != nil || !bytes.Equal(after, snapshot) {
			t.Fatalf("decoded message changed when input buffer was overwritten (err=%v)", err)
		}
	})
}

// FuzzEnvelopeRoundTrip checks that any envelope the decoder accepts
// survives a re-encode/re-decode cycle with its routing and message kind
// intact — the property the transport relies on when it forwards frames —
// and that the pooled EncodeFrame path produces the identical encoding.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	for _, m := range allMessages() {
		frame, err := Encode(Envelope{From: 3, To: 4, Msg: m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		frame, err := Encode(e)
		if err != nil {
			t.Fatalf("re-encode of accepted envelope failed: %v", err)
		}
		pooled, err := EncodeFrame(e, 4)
		if err != nil {
			t.Fatalf("pooled re-encode of accepted envelope failed: %v", err)
		}
		if !bytes.Equal(pooled.Payload(4), frame) {
			t.Fatal("EncodeFrame payload differs from Encode")
		}
		pooled.Release()
		e2, err := Decode(frame)
		if err != nil {
			t.Fatalf("re-decode of re-encoded envelope failed: %v", err)
		}
		if e2.From != e.From || e2.To != e.To {
			t.Fatalf("routing changed across round trip: %v->%v became %v->%v",
				e.From, e.To, e2.From, e2.To)
		}
		if (e.Msg == nil) != (e2.Msg == nil) {
			t.Fatal("message presence changed across round trip")
		}
		if e.Msg != nil && e.Msg.Kind() != e2.Msg.Kind() {
			t.Fatalf("message kind changed across round trip: %v became %v",
				e.Msg.Kind(), e2.Msg.Kind())
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus in the
// current wire format: one seed per message kind for each fuzz target.
// It is a maintenance tool, skipped unless WIRE_REGEN_CORPUS=1 — run it
// after any codec format change so the corpus stays format-valid seeds
// rather than degenerating into rejected garbage.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WIRE_REGEN_CORPUS") == "" {
		t.Skip("set WIRE_REGEN_CORPUS=1 to rewrite testdata/fuzz seed corpus")
	}
	for _, target := range []string{"FuzzDecode", "FuzzEnvelopeRoundTrip"} {
		dir := filepath.Join("testdata", "fuzz", target)
		old, _ := filepath.Glob(filepath.Join(dir, "seed-*"))
		for _, p := range old {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, m := range allMessages() {
			frame, err := Encode(Envelope{From: 1, To: 2, Msg: m})
			if err != nil {
				t.Fatal(err)
			}
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(frame)) + ")\n"
			name := fmt.Sprintf("seed-%02d-%s", i, m.Kind())
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzSizeMatchesEncoding holds the size-only walk to the encoder: for any
// envelope the decoder accepts, Size equals the length of its encoding.
// Decoded count maps arrive in random map order, which Size must not
// depend on.
func FuzzSizeMatchesEncoding(f *testing.F) {
	for _, m := range allMessages() {
		frame, err := Encode(Envelope{From: -5, To: 1 << 40, Msg: m})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data)
		if err != nil {
			return
		}
		frame, err := Encode(e)
		if err != nil {
			t.Fatalf("re-encode of accepted envelope failed: %v", err)
		}
		if got := Size(e); got != len(frame) {
			t.Fatalf("%s: Size = %d, encoding is %d bytes", e.Msg.Kind(), got, len(frame))
		}
	})
}
