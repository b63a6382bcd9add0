package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"idea/internal/id"
	"idea/internal/tracing"
	"idea/internal/vv"
)

// TestEncodingMatchesSeedCorpus pins the wire bytes of every message kind:
// each allMessages envelope (From 1, To 2) must encode byte for byte to its
// committed FuzzDecode seed. The seeds were written by the codec they pin,
// so any layout change shows here before a peer or a journal sees it.
func TestEncodingMatchesSeedCorpus(t *testing.T) {
	for i, m := range allMessages() {
		path := filepath.Join("testdata", "fuzz", "FuzzDecode", fmt.Sprintf("seed-%02d-%s", i, m.Kind()))
		want := readSeed(t, path)
		got, err := Encode(Envelope{From: 1, To: 2, Msg: m})
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T encodes as\n%x\nbut its seed %s holds\n%x", m, got, path, want)
		}
	}
}

// readSeed returns the one []byte value of a "go test fuzz v1" corpus file.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestEdgeEncodingsPinned pins the bytes of envelopes the seed corpus does
// not reach: absent and empty optional fields, routing IDs at the varint
// extremes, a multi-writer vector with stamp windows, and a traced message.
// Each want is the sha256 of the encoding the codec produced when the pin
// was taken; Size must also agree with each encoding.
func TestEdgeEncodingsPinned(t *testing.T) {
	multi := vv.New()
	for i := 0; i < 12; i++ {
		multi.Tick(id.NodeID(i%3-1), vv.Stamp(int64(i)*7e8+int64(i*i)), float64(i)/4)
	}
	multi.Compact(2)
	multi.Err = vv.Triple{Numerical: 1.5, Order: -2, Staleness: 1e9}
	u := Update{File: "f", Writer: -3, Seq: 1 << 33, At: -1, Meta: -0.5, Op: "", Data: nil,
		TC: tracing.Context{Trace: 1 << 63, Span: 300}}
	for _, tc := range []struct {
		name string
		e    Envelope
		want string
	}{
		{"nil VV", Envelope{From: 1, To: 2, Msg: DetectRequest{File: "f", Token: 1}},
			"ae7304757c2e37148394aff27a427960db3995e271540a95cdb28051af4e24fa"},
		{"nil Stable", Envelope{From: 1, To: 2, Msg: GossipDigest{File: "f", Origin: 1, VV: vv.New()}},
			"1dd2cc8e665d034a1f6c64514f717a1f05ffeca802488ce2d6c1456c06a9f05e"},
		{"empty Stable", Envelope{From: 1, To: 2, Msg: GossipDigest{File: "f", Origin: 1, VV: vv.New(),
			Stable: map[id.NodeID]int{}}},
			"669d3742a18af946e5498ea6dde813de77da8a57c33048997e46efcb43b1e682"},
		{"extreme routing", Envelope{From: -5, To: 1 << 40, Msg: CFAAck{File: "f", Token: -9, OK: true}},
			"24813cabbae573b0befb9a217fa63b60ae145f34952eb08aadee76e9c0614cff"},
		{"empty Updates", Envelope{From: 1, To: 2, Msg: CollectReply{File: "f", Token: 7, Updates: []Update{}}},
			"1421eb5cb783c029226693b8020b0f0e2ed0e63f2a74ab882266b704ac005619"},
		{"nil Data", Envelope{From: 1, To: 2, Msg: StrongReplicate{File: "f", Update: u, Commit: -1}},
			"8ad2b473bfba504aec6f660c8c045140fe2b399b58cb296975de8125765d62e2"},
		{"multi-writer vector", Envelope{From: 1, To: 2, Msg: GossipDigest{File: "g", Origin: -1, Round: 1 << 20,
			TTL: 3, VV: multi, Stable: map[id.NodeID]int{-1: 4, 0: 0, 1: 1 << 40}, TC: u.TC}},
			"7adedf346cc31fa6f9f97e8eb684681fbc6f248f33c9715a464cf5659f5e9372"},
		{"empty DigestBatch", Envelope{From: 1, To: 2, Msg: DigestBatch{}},
			"06adda4110c7b294b29b8466fd86c672876a3e37ad8b4b7f727a21f637491622"},
	} {
		frame, err := Encode(tc.e)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := sha256.Sum256(frame)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: encoding %x has sha256 %s, want %s", tc.name, frame, got, tc.want)
		}
		if size := Size(tc.e); size != len(frame) {
			t.Errorf("%s: Size = %d, encoding is %d bytes", tc.name, size, len(frame))
		}
	}
}
