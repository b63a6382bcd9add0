package core

import (
	"testing"
	"time"

	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/vv"
)

// clockEnv wraps an env, counting its clock readings (Now and Stamp) and
// the timers armed through it; sends and timers are dropped.
type clockEnv struct {
	env.Env
	reads  int
	timers []armed
}

// armed is one timer a clockEnv dropped.
type armed struct {
	key  string
	data any
}

func (e *clockEnv) Now() time.Time  { e.reads++; return e.Env.Now() }
func (e *clockEnv) Stamp() vv.Stamp { e.reads++; return e.Env.Stamp() }
func (e *clockEnv) After(_ time.Duration, key string, data any) {
	e.timers = append(e.timers, armed{key, data})
}

// writeNode is node 1 of a cluster of nodes 1..top whose every member is
// in file f's top layer: top == 1 is a lone writer.
func writeNode(top int) *Node {
	var all []id.NodeID
	for n := id.NodeID(1); n <= id.NodeID(top); n++ {
		all = append(all, n)
	}
	mem := overlay.NewStatic(all, map[id.FileID][]id.NodeID{"f": all})
	return NewNode(1, Options{Membership: mem, All: all, DisableRansub: true})
}

// TestLoneWriteCost pins how often a lone writer's write reads the clock:
// at most twice, the update's stamp and the probe's one instant, reused
// for its verdict. TestLoneWriteAllocs (alloc_test.go) pins its
// allocations.
func TestLoneWriteCost(t *testing.T) {
	n, e, data := loneWriter()
	verdicts := 0
	n.SetOnLevel(func(_ env.Env, _ id.FileID, res detect.Result) {
		if res.OK {
			verdicts++
		}
	})
	n.WriteTracked(e, "f", "w", data, 0) // opens the replica
	e.reads = 0
	n.WriteTracked(e, "f", "w", data, 0)
	if e.reads > 2 {
		t.Errorf("a lone write read the clock %d times, want at most 2", e.reads)
	}
	if verdicts != 2 || len(e.timers) != 0 {
		t.Fatalf("%d immediate verdicts and %d timers for 2 lone writes, want 2 and 0", verdicts, len(e.timers))
	}
}

// loneWriter returns a lone writer of file f, a counting env and a
// payload to write.
func loneWriter() (*Node, *clockEnv, []byte) {
	return writeNode(1), &clockEnv{Env: stubEnv{id: 1}}, make([]byte, 256)
}

// BenchmarkWriteTracked times one WriteTracked call, verdict included, on
// a lone writer and on a member of a 4-node top layer. The env drops the
// probe's requests and fires its timeout right after the write, so a
// top-layer probe finishes as one no peer answered. The node is rebuilt
// every 1<<16 writes to keep the replica log small.
func BenchmarkWriteTracked(b *testing.B) {
	for _, bc := range []struct {
		name string
		top  int
	}{{"lone", 1}, {"top4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			e := &clockEnv{Env: stubEnv{id: 1}}
			data := make([]byte, 256)
			var n *Node
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%(1<<16) == 0 {
					b.StopTimer()
					n = writeNode(bc.top)
					b.StartTimer()
				}
				n.WriteTracked(e, "f", "w", data, 0)
				for _, tm := range e.timers {
					n.Timer(e, tm.key, tm.data)
				}
				e.timers = e.timers[:0]
			}
		})
	}
}
