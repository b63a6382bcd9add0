package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/overlay"
	"idea/internal/resolve"
	"idea/internal/store"
	"idea/internal/telemetry"
	"idea/internal/transport"
	"idea/internal/vv"
	"idea/internal/wire"
)

// opTimeout bounds one closed-loop op; an op that exceeds it is a failure.
const opTimeout = 10 * time.Second

// quiesceTimeout bounds the post-load convergence wait.
const quiesceTimeout = 15 * time.Second

// liveNode is one core.Node behind a real transport listener with a WAL.
type liveNode struct {
	id     id.NodeID
	core   *core.Node
	tn     *transport.Node
	wal    *store.WAL
	walDir string
	th     *tracedHandler // nil in an untraced run
}

// liveCluster is the closed-loop rig: Nodes core.Nodes in one process on
// 127.0.0.1 listeners, each with a store.WAL (group commit 8) in a fresh
// temp dir under the benchmark's out directory.
type liveCluster struct {
	sp     spec
	dir    string
	epoch  time.Time
	nodes  []*liveNode
	files  []id.FileID
	top    map[id.FileID][]id.NodeID
	tr     *tracker
	tracer *tracer // nil in an untraced run
}

func (c *liveCluster) now() int64 { return int64(time.Since(c.epoch)) }

// buildLive builds and starts the cluster (no load yet).
func buildLive(sp spec, outDir string, traced bool) (*liveCluster, error) {
	dir, err := os.MkdirTemp(outDir, "wal-*")
	if err != nil {
		return nil, fmt.Errorf("wal temp dir: %w", err)
	}
	c := &liveCluster{sp: sp, dir: dir, epoch: time.Now()}
	all, files, top := sp.layout()
	c.files, c.top = files, top
	pre := sp.preloadPerWriter()
	c.tr = newTracker(files, top, hintLevel, pre)
	if traced {
		c.tracer = newTracer(c.epoch, true)
	}
	fail := func(err error) (*liveCluster, error) {
		c.close()
		return nil, err
	}
	mem := overlay.NewStatic(all, top)
	for _, nid := range all {
		ln := &liveNode{id: nid, walDir: filepath.Join(dir, fmt.Sprintf("n%d", nid))}
		c.nodes = append(c.nodes, ln)
		if ln.wal, err = store.OpenWAL(ln.walDir); err != nil {
			return fail(err)
		}
		ln.wal.SetGroupCommit(8)
		ln.core = core.NewNode(nid, core.Options{
			Membership:    mem,
			All:           all,
			Shards:        sp.Shards,
			DisableRansub: true,
			Resolve:       resolve.Config{Policy: resolve.MergeAll},
			// A §4.4.2 rollback discards acknowledged writes by design.
			DisableRollback: true,
			Journal:         ln.wal,
		})
		for _, f := range files {
			if err := ln.core.SetHint(f, hintLevel); err != nil {
				return fail(err)
			}
		}
		c.preload(ln, pre)
		c.tr.attach(ln.core, c.now)
		var h env.Handler = ln.core
		if traced {
			ln.th = newTracedHandler(c.tracer, nid, ln.core)
			h = ln.th
		}
		if ln.tn, err = transport.ListenOpts(nid, "127.0.0.1:0", h, nil, transport.Opts{}); err != nil {
			return fail(err)
		}
		ln.tn.AttachMetrics(ln.core.Metrics())
	}
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if a != b {
				a.tn.AddPeer(b.id, b.tn.Addr())
			}
		}
	}
	for _, ln := range c.nodes {
		ln.tn.Start()
	}
	return c, nil
}

// preload applies the same Preload updates per file to ln's replicas, through
// the store (so the WAL journals them like any applied update).
func (c *liveCluster) preload(ln *liveNode, pre map[id.NodeID]int) {
	if c.sp.Preload == 0 {
		return
	}
	payload := make([]byte, c.sp.Payload)
	at := vv.Stamp(c.epoch.Add(-time.Hour).UnixNano())
	for _, f := range c.files {
		rep := ln.core.Store().Open(f)
		next := make(map[id.NodeID]int)
		for i := 0; i < c.sp.Preload; i++ {
			w := id.NodeID(i%c.sp.Nodes + 1)
			if next[w] >= pre[w] {
				continue
			}
			next[w]++
			rep.Apply(wire.Update{File: f, Writer: w, Seq: next[w], At: at + vv.Stamp(i)*1000, Meta: 1, Op: "w", Data: payload})
		}
	}
}

// close stops every node, closes the WALs and removes the temp dir.
func (c *liveCluster) close() {
	c.stop()
	for _, ln := range c.nodes {
		if ln.wal != nil {
			ln.wal.Close()
		}
	}
	os.RemoveAll(c.dir)
}

// stop closes the transports (idempotent): after it returns no executor
// runs, so replicas may be read from the caller's goroutine.
func (c *liveCluster) stop() {
	for _, ln := range c.nodes {
		if ln.tn != nil {
			ln.tn.Close()
		}
	}
}

// liveOp is one closed-loop operation in flight. The executor fills the
// timing fields before it (directly or through the tracker) signals done,
// so the client reads them race-free after the receive.
type liveOp struct {
	due, entered int64
	logLen       int
	done         chan int64
}

// clientStats is what one client goroutine measured.
type clientStats struct {
	attempted, timeouts, badReads int
	reads                         int // scored and completed
	readNS                        []sample
	injectWaitNS                  []float64 // scored ops: InjectFile call → callback entry
}

// add merges another client's measurements in.
func (a *clientStats) add(b clientStats) {
	a.attempted += b.attempted
	a.timeouts += b.timeouts
	a.badReads += b.badReads
	a.reads += b.reads
	a.readNS = append(a.readNS, b.readNS...)
	a.injectWaitNS = append(a.injectWaitNS, b.injectWaitNS...)
}

// runClient is one closed-loop client on node ln: it issues ops until
// budget ops are done (budget > 0) or until the deadline passes.
func (c *liveCluster) runClient(ln *liveNode, rng *rand.Rand, budget int, deadline int64, st *clientStats) {
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	tmpl := make([]byte, c.sp.Payload)
	rng.Read(tmpl)
	depth := c.sp.Preload
	for n := 0; ; n++ {
		if budget > 0 && n >= budget {
			return
		}
		if budget == 0 && c.now() >= deadline {
			return
		}
		file := c.files[rng.Intn(len(c.files))]
		r := rng.Float64()
		isRead, checked := r < c.sp.ReadShare+c.sp.CheckShare, r >= c.sp.ReadShare
		meta := rng.Float64()
		op := &liveOp{due: c.now(), done: make(chan int64, 1)}
		scored := c.tr.scored(op.due)
		if scored {
			st.attempted++
		}
		if isRead {
			ln.tn.InjectFile(file, func(e env.Env) {
				e, cs := ln.th.enter(e, file)
				op.entered = c.now()
				var log []wire.Update
				if checked {
					log = ln.core.ReadChecked(e, file)
				} else {
					log = ln.core.Read(file)
				}
				end := c.now()
				op.logLen = len(log)
				cs.child("core.read_call", op.entered, end, file, 0)
				cs.exit()
				op.done <- end
			})
		} else {
			data := append([]byte(nil), tmpl...)
			ln.tn.InjectFile(file, func(e env.Env) {
				e, cs := ln.th.enter(e, file)
				op.entered = c.now()
				c.tr.beginWrite(ln.id, file)
				start := c.now()
				u, token := ln.core.WriteTracked(e, file, "w", data, meta)
				end := c.now()
				cs.child("core.write_call", start, end, file, token)
				c.tr.wrote(ln.id, file, u.Seq, token, op.due, end, op.done)
				cs.exit()
			})
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(opTimeout)
		select {
		case at := <-op.done:
			if !scored {
				continue
			}
			st.injectWaitNS = append(st.injectWaitNS, float64(op.entered-op.due))
			if isRead {
				st.reads++
				st.readNS = append(st.readNS, sample{op.due, at - op.due})
				if op.logLen < depth {
					st.badReads++ // a MergeAll log never shrinks below the preload
				}
			}
		case <-timer.C:
			if scored {
				st.timeouts++
			}
		}
	}
}

// load runs the clients: budget > 0 issues that many ops each (warm-up),
// budget == 0 runs until deadline (ns since epoch).
func (c *liveCluster) load(seed int64, phase int, budget int, deadline int64) []clientStats {
	stats := make([]clientStats, c.sp.Clients)
	var wg sync.WaitGroup
	for i := 0; i < c.sp.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000003 + int64(phase)*1009 + int64(i)))
			c.runClient(c.nodes[i%len(c.nodes)], rng, budget, deadline, &stats[i])
		}(i)
	}
	wg.Wait()
	return stats
}

// snapshots returns every node's registry snapshot.
func (c *liveCluster) snapshots() []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(c.nodes))
	for i, ln := range c.nodes {
		out[i] = ln.core.Metrics().Snapshot()
	}
	return out
}

// quiesce drives the cluster to convergence after load stopped: one member
// per file demands an active resolution, then the tracker is polled until
// every tracked write is visible on every top-layer member (re-demanding
// periodically, since a demand can lose a back-off race).
func (c *liveCluster) quiesce() {
	deadline := time.Now().Add(quiesceTimeout)
	for {
		for _, f := range c.files {
			f := f
			ln := c.nodes[int(c.top[f][0])-1]
			ln.tn.InjectFile(f, func(e env.Env) { ln.core.DemandActiveResolution(e, f) })
		}
		time.Sleep(100 * time.Millisecond) // let the demanded sessions run
		for i := 0; i < 16 && c.tr.pending() > 0; i++ {
			time.Sleep(25 * time.Millisecond)
		}
		if c.tr.pending() == 0 || time.Now().After(deadline) {
			return
		}
	}
}
