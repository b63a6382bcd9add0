package main

import (
	"io"
	"math/rand"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/resolve"
	"idea/internal/simnet"
)

// simCluster is the open-loop rig: Nodes core.Nodes under simnet's virtual
// clock and default WAN latency model. Writes are scheduled at virtual
// instants fixed by the seed alone — every top-layer member writes its file
// once per WritePeriod, at an instant drawn uniformly inside each period —
// and every latency is timed from the due instant. Under virtual time the
// generator is never late: CallAtFile fires at exactly the instant it was
// given.
type simCluster struct {
	sp      spec
	sim     *simnet.Cluster
	nodes   map[id.NodeID]*core.Node
	ths     map[id.NodeID]*tracedHandler // empty in an untraced run
	files   []id.FileID
	top     map[id.FileID][]id.NodeID
	tr      *tracker
	tracer  *tracer
	payload []byte
	rng     *rand.Rand
	round   int // periods scheduled so far
}

func (c *simCluster) now() int64 { return int64(c.sim.Elapsed()) }

// buildSim builds and starts the cluster (no load yet). The seed drives
// simnet's latency draws, every node's RNG, and the write phases. A non-nil
// eventTrace receives simnet's one-line-per-event schedule record.
func buildSim(sp spec, seed int64, traced bool, eventTrace io.Writer) *simCluster {
	c := &simCluster{
		sp:    sp,
		sim:   simnet.New(simnet.Config{Seed: seed, EventTrace: eventTrace}),
		nodes: make(map[id.NodeID]*core.Node),
		ths:   make(map[id.NodeID]*tracedHandler),
		rng:   rand.New(rand.NewSource(seed ^ 0x1dea)),
	}
	all, files, top := sp.layout()
	c.files, c.top = files, top
	c.tr = newTracker(files, top, hintLevel, nil)
	if traced {
		c.tracer = newTracer(time.Now(), false)
	}
	c.payload = make([]byte, sp.Payload)
	c.rng.Read(c.payload)
	mem := overlay.NewStatic(all, top)
	for _, nid := range all {
		n := core.NewNode(nid, core.Options{
			Membership:    mem,
			All:           all,
			Shards:        sp.Shards,
			DisableRansub: true,
			Resolve:       resolve.Config{Policy: resolve.MergeAll},
			// A §4.4.2 rollback discards acknowledged writes by design.
			DisableRollback: true,
		})
		for _, f := range files {
			if err := n.SetHint(f, hintLevel); err != nil {
				panic(err) // hintLevel is a constant inside [0, 1]
			}
		}
		c.tr.attach(n, c.now)
		c.nodes[nid] = n
		var h env.Handler = n
		if traced {
			c.ths[nid] = newTracedHandler(c.tracer, nid, n)
			h = c.ths[nid]
		}
		c.sim.Add(nid, h)
	}
	c.sim.Start()
	return c
}

// runFor schedules the periods' writes and advances virtual time by d
// (a whole number of periods).
func (c *simCluster) runFor(d time.Duration) {
	for end := c.sim.Elapsed() + d; c.sim.Elapsed() < end; {
		base := time.Duration(c.round) * c.sp.WritePeriod
		c.round++
		for _, f := range c.files {
			for _, nid := range c.top[f] {
				c.scheduleWrite(base+time.Duration(c.rng.Int63n(int64(c.sp.WritePeriod))), nid, f)
			}
		}
		c.sim.RunUntil(base + c.sp.WritePeriod)
	}
}

func (c *simCluster) scheduleWrite(at time.Duration, nid id.NodeID, f id.FileID) {
	meta := c.rng.Float64()
	n, th := c.nodes[nid], c.ths[nid]
	c.sim.CallAtFile(at, nid, f, func(e env.Env) {
		e, cs := th.enter(e, f)
		c.tr.beginWrite(nid, f)
		var start int64
		if cs != nil {
			start = c.tracer.now()
		}
		u, token := n.WriteTracked(e, f, "w", c.payload, meta)
		if cs != nil {
			cs.child("core.write_call", start, c.tracer.now(), f, token)
		}
		c.tr.wrote(nid, f, u.Seq, token, int64(at), c.now(), nil)
		cs.exit()
	})
}

// quiesce stops the load, has one member per file demand an active
// resolution, and runs the clock until every tracked write is visible on
// every top-layer member (bounded).
func (c *simCluster) quiesce() {
	for round := 0; round < 12; round++ {
		for _, f := range c.files {
			f := f
			n := c.nodes[c.top[f][0]]
			c.sim.CallAtFile(c.sim.Elapsed(), c.top[f][0], f, func(e env.Env) { n.DemandActiveResolution(e, f) })
		}
		c.sim.RunFor(5 * time.Second)
		if c.tr.pending() == 0 {
			return
		}
	}
}
