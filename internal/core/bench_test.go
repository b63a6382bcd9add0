package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/resolve"
	"idea/internal/simnet"
)

// BenchmarkSimWAN12 runs the paper's emulated shape for 200 virtual
// seconds: 12 nodes on simnet's WAN model, 8 files with 4-member top
// layers and a 0.95 hint, every member writing its file once per 5
// virtual seconds, after a 100-second warm-up. It measures the simulator
// and the protocol together, bookkeeping included (message accounting,
// health ticks, gossip dedup), and reports simulated events per wall
// second.
func BenchmarkSimWAN12(b *testing.B) {
	const (
		nodes, files, top = 12, 8, 4
		period            = 5 * time.Second
		warmup, window    = 20, 40 // write periods
	)
	var all []id.NodeID
	for n := id.NodeID(1); n <= nodes; n++ {
		all = append(all, n)
	}
	fs := make([]id.FileID, files)
	layers := make(map[id.FileID][]id.NodeID, files)
	for i := range fs {
		fs[i] = id.FileID(fmt.Sprintf("f%02d", i))
		for k := 0; k < top; k++ {
			layers[fs[i]] = append(layers[fs[i]], all[(i+k)%nodes])
		}
	}
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := simnet.New(simnet.Config{Seed: int64(i + 1)})
		mem := overlay.NewStatic(all, layers)
		ns := make(map[id.NodeID]*Node, nodes)
		for _, nid := range all {
			n := NewNode(nid, Options{Membership: mem, All: all, DisableRansub: true,
				Resolve: resolve.Config{Policy: resolve.MergeAll}, DisableRollback: true})
			for _, f := range fs {
				if err := n.SetHint(f, 0.95); err != nil {
					b.Fatal(err)
				}
			}
			ns[nid] = n
			c.Add(nid, n)
		}
		c.Start()
		rng := rand.New(rand.NewSource(int64(i)))
		payload := make([]byte, 16)
		run := func(from, to int) {
			for p := from; p < to; p++ {
				base := time.Duration(p) * period
				for _, f := range fs {
					for _, nid := range layers[f] {
						n, f := ns[nid], f
						at := base + time.Duration(rng.Int63n(int64(period)))
						c.CallAtFile(at, nid, f, func(e env.Env) { n.Write(e, f, "w", payload, 0) })
					}
				}
				c.RunUntil(base + period)
			}
		}
		run(0, warmup)
		events -= c.Events()
		b.StartTimer()
		run(warmup, warmup+window)
		b.StopTimer()
		events += c.Events()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
