package idea_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"idea"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/vv"
	"idea/internal/wire"
)

// TestSnapshotStreamLargeBootstrap is the chunked-transfer regression
// test: a joiner bootstraps from a seed whose replica is larger than the
// transport's maximum frame (and than the per-chunk update/byte
// windows), which only the streaming snapshot path can move at all — the
// old monolithic SnapshotFileReply would exceed MaxFrame and never
// arrive. The result must be byte-equivalent to the seed's replica, and
// the process's heap spike during the transfer must stay bounded by the
// store size, not a multiple of it.
func TestSnapshotStreamLargeBootstrap(t *testing.T) {
	if testing.Short() {
		t.Skip("moves ~24MiB over loopback")
	}
	const (
		updates = 1536     // > the 512-update chunk window
		payload = 16 << 10 // 16KiB each → ~24MiB total, > transport MaxFrame (16MiB)
	)
	fast := &idea.MembershipConfig{
		ProbeInterval:  200 * time.Millisecond,
		ProbeTimeout:   100 * time.Millisecond,
		SuspectTimeout: 600 * time.Millisecond,
		JoinRetry:      250 * time.Millisecond,
	}
	seed, err := idea.NewLiveNode(idea.LiveNodeConfig{
		Self: 1, Listen: "127.0.0.1:0", All: []idea.NodeID{1},
		Swim: true, SwimConfig: fast, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	data := make([]byte, payload)
	for i := range data {
		data[i] = byte(i)
	}
	filled := make(chan struct{})
	seed.InjectFile("big", func(env.Env) {
		rep := seed.N.Store().Open("big")
		seqs := make(map[id.NodeID]int)
		for i := 0; i < updates; i++ {
			w := id.NodeID(i%3 + 2)
			seqs[w]++
			rep.Apply(wire.Update{File: "big", Writer: w, Seq: seqs[w],
				At: vv.Stamp(i+1) * 1e6, Op: "put", Data: data})
		}
		close(filled)
	})
	<-filled
	type seedState struct {
		vec *vv.Vector
		log []wire.Update
	}
	seedCh := make(chan seedState, 1)
	seed.InjectFile("big", func(env.Env) {
		rep := seed.N.Store().Open("big")
		seedCh <- seedState{rep.Vector(), rep.Log()}
	})
	want := <-seedCh

	// HeapAlloc counts garbage not yet collected, and at the default GOGC
	// the collector lets that reach the live heap's own size. Collect
	// early during the transfer so the peak reflects what the transfer
	// holds, not collector slack over a baseline that other tests (or a
	// -count > 1 rerun) have already grown.
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc

	joiner, err := idea.NewLiveNode(idea.LiveNodeConfig{
		Self: 9, Listen: "127.0.0.1:0", Join: seed.Addr(), SwimConfig: fast, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	const storeBytes = updates * payload
	var peak uint64
	deadline := time.Now().Add(60 * time.Second)
	for {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		got := make(chan *vv.Vector, 1)
		joiner.InjectFile("big", func(env.Env) { got <- joiner.N.Store().Open("big").Vector() })
		if vv.Compare(<-got, want.vec) == vv.Equal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("joiner never converged; chunked snapshot transfer is broken " +
				"(the store exceeds MaxFrame, so only streaming can move it)")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Byte equivalence: identical vector (checked above), identical log.
	logCh := make(chan []wire.Update, 1)
	joiner.InjectFile("big", func(env.Env) { logCh <- joiner.N.Store().Open("big").Log() })
	gotLog := <-logCh
	if len(gotLog) != len(want.log) {
		t.Fatalf("joiner log has %d updates, seed has %d", len(gotLog), len(want.log))
	}
	if !reflect.DeepEqual(gotLog, want.log) {
		t.Fatal("joiner log differs from seed log after chunked bootstrap")
	}

	// Peak-memory bound: the joiner's own copy of the store is ~storeBytes;
	// the in-flight window adds O(chunk). A monolithic transfer would spike
	// several multiples of storeBytes (encode frame + decode copy + updates
	// slice). Allow the copy plus generous slack for the runtime.
	if limit := baseline + 2*storeBytes; peak > limit {
		t.Fatalf("heap peaked at %dMiB (baseline %dMiB) — more than baseline+2×store (%dMiB); "+
			"snapshot transfer is not streaming", peak>>20, baseline>>20, limit>>20)
	}
}
