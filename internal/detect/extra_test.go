package detect

import (
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

func TestDuplicateRepliesIgnored(t *testing.T) {
	c, nodes := buildTop(t, 2, Config{})
	c.CallAt(time.Second, 2, func(e env.Env) {
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 9)
	})
	var token int64
	c.CallAt(2*time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		token = nodes[1].det.Detect(e, board)
	})
	c.RunFor(5 * time.Second)
	if len(nodes[1].results) != 1 {
		t.Fatalf("results = %d", len(nodes[1].results))
	}
	// Re-deliver a stale reply for the finished probe: must be a no-op.
	c.CallAt(c.Elapsed()+time.Second, 1, func(e env.Env) {
		nodes[1].det.HandleReply(e, 2, wire.DetectReply{File: board, Token: token, VV: nodes[2].st.Open(board).Vector()})
	})
	c.RunFor(2 * time.Second)
	if len(nodes[1].results) != 1 {
		t.Fatal("stale reply produced a second result")
	}
}

// TestVectorlessMessagesDropped: a probe or a reply that arrives without a
// vector is dropped, not read; the probe still completes on the valid
// reply.
func TestVectorlessMessagesDropped(t *testing.T) {
	c, nodes := buildTop(t, 2, Config{})
	var token int64
	c.CallAt(time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		token = nodes[1].det.Detect(e, board)
		nodes[1].det.Recv(e, 2, wire.DetectReply{File: board, Token: token})
		nodes[2].det.Recv(e, 1, wire.DetectRequest{File: board, Token: token})
	})
	c.RunFor(5 * time.Second)
	if len(nodes[1].results) != 1 || nodes[1].results[0].Replies != 1 {
		t.Fatalf("results = %+v, want one verdict on the one valid reply", nodes[1].results)
	}
}

func TestConcurrentProbesIsolated(t *testing.T) {
	c, nodes := buildTop(t, 3, Config{})
	const other = id.FileID("other")
	// Register 'other' in the membership by reusing the same static view
	// is not possible; use the same file with two tokens instead.
	c.CallAt(time.Second, 2, func(e env.Env) {
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 9)
	})
	c.CallAt(2*time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		nodes[1].det.Detect(e, board)
		nodes[1].det.Detect(e, board)
	})
	c.RunFor(5 * time.Second)
	if len(nodes[1].results) != 2 {
		t.Fatalf("results = %d, want both probes to complete", len(nodes[1].results))
	}
	if nodes[1].results[0].Token == nodes[1].results[1].Token {
		t.Fatal("probes share a token")
	}
	_ = other
}

// TestReplyCarriesPeerVector: the peer's reply carries its replica's
// counts and critical metadata, which the writer scores against its own.
func TestReplyCarriesPeerVector(t *testing.T) {
	c, nodes := buildTop(t, 2, Config{})
	c.CallAt(time.Second, 2, func(e env.Env) {
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 9)
		nodes[2].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 11)
	})
	c.CallAt(2*time.Second, 1, func(e env.Env) {
		nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
		nodes[1].det.Detect(e, board)
	})
	c.RunFor(5 * time.Second)
	if len(nodes[1].replies) != 1 {
		t.Fatalf("replies = %+v", nodes[1].replies)
	}
	got, peer := nodes[1].replies[0].VV, nodes[2].st.Open(board).Vector()
	if vv.Compare(got, peer) != vv.Equal || got.Meta != 11 {
		t.Fatalf("reply carries %v, the peer's replica is %v", got, peer)
	}
	// The peer is ahead by two updates of its own and ships their stamps.
	if n := len(got.Entry(2).Stamps); n != 2 {
		t.Fatalf("reply ships %d of the peer's stamps, want 2", n)
	}
	if len(nodes[1].results) != 1 || nodes[1].results[0].Ref != 2 {
		t.Fatalf("results = %+v", nodes[1].results)
	}
}

func TestDetectCountsAccumulate(t *testing.T) {
	c, nodes := buildTop(t, 2, Config{})
	for i := 0; i < 3; i++ {
		at := time.Duration(i+1) * 2 * time.Second
		c.CallAt(at, 1, func(e env.Env) {
			nodes[1].st.Open(board).WriteLocal(e.Stamp(), "w", nil, 1)
			nodes[1].det.Detect(e, board)
		})
	}
	c.RunFor(20 * time.Second)
	if nodes[1].det.Detections != 3 {
		t.Fatalf("detections = %d", nodes[1].det.Detections)
	}
}
