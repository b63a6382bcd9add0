package vv_test

import (
	"testing"

	"idea/internal/id"
	"idea/internal/quantify"
	"idea/internal/vv"
)

// FuzzAboveExact checks the contract that lets a detection probe ship
// remote.Above(floor) instead of remote: a receiver whose counts are at
// least floor scores the trimmed vector exactly as the whole one — same
// triple, same level — under every reference selector, compacted prefixes
// included. When floor overstates the receiver (it rolled back or
// restarted), staleness may only rise. The receiver's vector is recv, the
// prober's is remote; the script interleaves their updates, shared
// updates and compactions.
func FuzzAboveExact(f *testing.F) {
	// recv and remote share two updates of writer 1; remote adds a third,
	// recv one of writer 2; recv is the reference and floor[1] is its
	// count. Keeping stamps from floor rather than floor-1 loses the end
	// of the common prefix, and staleness jumps.
	f.Add([]byte{6, 6, 3, 8}, []byte{0x02}, uint8(5), false)
	f.Add([]byte{6, 14, 6, 22, 6, 3, 1, 4, 30}, []byte{0x01, 0x01, 0x01, 0x00}, uint8(2), false)
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 7, 0, 6}, []byte{0xff, 0x80, 0x85, 0x03}, uint8(1), true)
	f.Add([]byte{}, []byte{}, uint8(0), false)
	f.Fuzz(func(t *testing.T, script, floors []byte, window uint8, remoteHigher bool) {
		win := int(window%6) + 1
		recv, remote := vv.NewWindowed(win), vv.NewWindowed(win)
		at := vv.Stamp(0)
		for _, b := range script {
			at += vv.Stamp(b%7+1) * 1e8
			w, meta := id.NodeID(b/8%4+1), float64(b)
			switch b % 8 {
			case 0, 1, 2:
				recv.Tick(w, at, meta)
			case 3, 4, 5:
				remote.Tick(w, at, meta)
			case 6:
				recv.Tick(w, at, meta)
				remote.Tick(w, at, meta)
			case 7:
				recv.Compact(win)
				remote.Compact(win)
			}
		}
		// A clear high bit keeps floor[w] within recv's count (the
		// contract); a set one lets it exceed it (a broken bound).
		floor := map[id.NodeID]int{}
		bounded := true
		for i, b := range floors {
			w := id.NodeID(i%4 + 1)
			if b&0x80 == 0 {
				floor[w] = int(b) % (recv.Count(w) + 1)
			} else {
				floor[w] = int(b&0x7f) % (remote.Count(w) + 3)
				bounded = bounded && floor[w] <= recv.Count(w)
			}
		}
		trimmed := remote.Above(floor)
		if err := trimmed.Validate(); err != nil {
			t.Fatal(err)
		}
		if got, want := vv.Compare(recv, trimmed), vv.Compare(recv, remote); got != want {
			t.Fatalf("Compare changed: %v, want %v", got, want)
		}

		self, from := id.NodeID(1), id.NodeID(2)
		if !remoteHigher {
			self, from = from, self
		}
		// As detect.HandleRequest scores a probe.
		score := func(sel quantify.RefSelector, v *vv.Vector) (vv.Triple, float64) {
			q := quantify.Default()
			_, ref := sel(map[id.NodeID]*vv.Vector{self: recv, from: v})
			return q.Score(v, ref)
		}
		for name, sel := range map[string]quantify.RefSelector{
			"highest-id": quantify.HighestIDRef, "most-updates": quantify.MostUpdatesRef, "merged": quantify.MergedRef,
		} {
			wt, wl := score(sel, remote)
			gt, gl := score(sel, trimmed)
			switch {
			case bounded && (gt != wt || gl != wl):
				t.Fatalf("%s: floor %v, recv %v, remote %v: trimmed scores %v %g, whole %v %g",
					name, floor, recv, remote, gt, gl, wt, wl)
			case gt.Numerical != wt.Numerical || gt.Order != wt.Order || gt.Staleness < wt.Staleness:
				t.Fatalf("%s: floor %v above recv %v, remote %v: trimmed scores %v, whole %v (staleness under-reported)",
					name, floor, recv, remote, gt, wt)
			}
		}

		// The trimmed vector shares remote's windows; later ticks on
		// remote must not reach it.
		before := trimmed.String()
		for w := id.NodeID(1); w <= 4; w++ {
			remote.Tick(w, at+1, 0)
		}
		if after := trimmed.String(); after != before {
			t.Fatalf("ticking the original changed the trimmed vector: %s -> %s", before, after)
		}
	})
}
