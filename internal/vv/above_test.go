package vv_test

import (
	"testing"

	"idea/internal/id"
	"idea/internal/quantify"
	"idea/internal/vv"
)

// FuzzWriterScoresExact checks the contract that lets a detection reply
// ship peer.Above(own.Counts()) instead of the peer's whole vector: the
// writer scoring its own vector against the trimmed reply reaches exactly
// the verdict a peer reaches scoring the writer's whole vector against its
// own — same ordering, same triple, same level — under every reference
// selector, compacted prefixes included. The writer's vector is own, the
// peer's is peer; the script interleaves their updates, shared updates and
// compactions. It also covers gossip.report: a bottom-layer digest ships
// own.Counts(), the reporter decides whether to report by comparing its
// vector peer with those counts, and its report ships peer.Above of them
// for the origin to score as a writer scores a reply.
func FuzzWriterScoresExact(f *testing.F) {
	// own and peer share two updates of writer 1; peer adds a third, own
	// one of writer 2. The reference holds peer's writer-1 entry, whose
	// third stamp is the first divergent update: keeping stamps from
	// own's count + 1 loses it, and staleness jumps.
	f.Add([]byte{6, 6, 3, 8}, uint8(5), true)
	f.Add([]byte{6, 14, 6, 22, 6, 3, 1, 4, 30}, uint8(2), false)
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 7, 0, 6}, uint8(1), true)
	f.Add([]byte{}, uint8(0), false)
	f.Fuzz(func(t *testing.T, script []byte, window uint8, peerHigher bool) {
		win := int(window%6) + 1
		own, peer := vv.NewWindowed(win), vv.NewWindowed(win)
		at := vv.Stamp(0)
		for _, b := range script {
			at += vv.Stamp(b%7+1) * 1e8
			w, meta := id.NodeID(b/8%4+1), float64(b)
			switch b % 8 {
			case 0, 1, 2:
				own.Tick(w, at, meta)
			case 3, 4, 5:
				peer.Tick(w, at, meta)
			case 6:
				own.Tick(w, at, meta)
				peer.Tick(w, at, meta)
			case 7:
				own.Compact(win)
				peer.Compact(win)
			}
		}
		if got, want := vv.Compare(peer, own.Counts()), vv.Compare(peer, own); got != want {
			t.Fatalf("Compare against counts: %v, want %v", got, want)
		}
		reply := peer.Above(own.Counts())
		if err := reply.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := vv.AboveMatchesModel(peer, own.Counts()); err != nil {
			t.Fatal(err)
		}
		if got, want := vv.Compare(own, reply), vv.Compare(own, peer); got != want {
			t.Fatalf("Compare changed: %v, want %v", got, want)
		}

		writer, from := id.NodeID(1), id.NodeID(2)
		if !peerHigher {
			writer, from = from, writer
		}
		// As detect.HandleReply scores a reply: own against the
		// reference chosen from own and the peer's vector.
		score := func(sel quantify.RefSelector, p *vv.Vector) (vv.Triple, float64) {
			q := quantify.Default()
			_, ref := sel(map[id.NodeID]*vv.Vector{writer: own, from: p})
			return q.Score(own, ref)
		}
		for name, sel := range map[string]quantify.RefSelector{
			"highest-id": quantify.HighestIDRef, "most-updates": quantify.MostUpdatesRef, "merged": quantify.MergedRef,
		} {
			wt, wl := score(sel, peer)
			gt, gl := score(sel, reply)
			if gt != wt || gl != wl {
				t.Fatalf("%s: own %v, peer %v: the reply scores %v %g, the whole vector %v %g",
					name, own, peer, gt, gl, wt, wl)
			}
		}

		// The reply shares peer's windows; later ticks on peer must not
		// reach it.
		before := reply.String()
		for w := id.NodeID(1); w <= 4; w++ {
			peer.Tick(w, at+1, 0)
		}
		if after := reply.String(); after != before {
			t.Fatalf("ticking the original changed the reply: %s -> %s", before, after)
		}
	})
}
