package loadgen

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"idea/internal/core"
	"idea/internal/detect"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/resolve"
	"idea/internal/telemetry"
)

// fileInjector runs fn in the serialization domain owning file.
type fileInjector interface {
	InjectFile(file id.FileID, fn func(env.Env))
}

// writeKey correlates a write with its asynchronous detection verdict.
// Detect tokens are only unique per (node, file shard), so the key pairs
// the file with the token.
type writeKey struct {
	file  id.FileID
	token int64
}

// liveRun is the shared state of one RunLive invocation. Write latencies
// are measured wall-clock from issue to the asynchronous detection
// verdict, correlated by (file, token) through the node's OnLevel hook.
type liveRun struct {
	cfg     Config
	n       *core.Node
	inj     fileInjector
	rec     *recorder
	stopped atomic.Bool
	// halted is set when Config.Stop closes: issuers wind down early.
	halted atomic.Bool

	// measureFrom gates recording: operations issued before it (the
	// ramp-up / worker-stagger warm-up window) are excluded from counts
	// and percentiles, so the report reflects steady state rather than
	// the deliberately underdriven warm-up.
	measureFrom time.Time

	mu      sync.Mutex
	waiters map[writeKey]writeWait
	// early holds verdicts that arrived before the issuing closure
	// could register its waiter (a lone writer's probe finalizes
	// synchronously inside WriteTracked).
	early map[writeKey]struct{}
	// fileOps counts measured completed ops per file, the raw material
	// of idea-load's per-shard throughput split.
	fileOps map[id.FileID]int64
	// timeline buckets measured completed ops per second of the
	// measurement window — the churn dip/recovery signal.
	timeline []int64
	// killOffsets records when (seconds into the measured window) each
	// churn kill fired.
	killOffsets []int

	// prevLevel/prevOutcome are the node's original hooks, restored
	// when the run ends so a long-lived embedder does not keep feeding
	// the run's maps forever.
	prevLevel   core.LevelFunc
	prevOutcome core.OutcomeFunc
}

type writeWait struct {
	start time.Time
	done  chan time.Duration // nil for open-loop writes
}

// RunLive drives the workload against a live node: every op is injected
// through inj.InjectFile into the serialization domain owning its file
// (transport.Node and cluster.LiveNode provide it), so the driver
// coexists with real protocol traffic. Closed-loop mode (Rate == 0) runs
// Workers issuers that each wait for their write's detection verdict
// before continuing; open-loop mode paces at Rate ops/sec (ramping over
// RampUp) without waiting.
// Operations issued during the RampUp window warm the system but are
// excluded from the report's counts and percentiles. Passing the node's
// own registry as reg exposes the run's latency histograms on the node's
// /metrics surface; nil keeps them private.
func RunLive(cfg Config, n *core.Node, inj fileInjector, reg *telemetry.Registry) *Report {
	cfg = cfg.withDefaults()
	lr := &liveRun{
		cfg:     cfg,
		n:       n,
		inj:     inj,
		rec:     newRecorder(reg),
		waiters: make(map[writeKey]writeWait),
		early:   make(map[writeKey]struct{}),
		fileOps: make(map[id.FileID]int64),
	}
	lr.installHooks()

	start := time.Now()
	lr.measureFrom = start.Add(cfg.RampUp)
	deadline := start.Add(cfg.Duration)
	runDone := make(chan struct{})
	if cfg.Stop != nil {
		go func() {
			select {
			case <-cfg.Stop:
				lr.halted.Store(true)
			case <-runDone:
			}
		}()
	}
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lr.openLoop(start, deadline)
		}()
	} else {
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lr.closedWorker(w, deadline)
			}(w)
		}
	}
	if cfg.Churn != nil && cfg.ChurnEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lr.churnLoop(deadline)
		}()
	}
	wg.Wait()
	close(runDone)
	lr.drain()
	lr.stopped.Store(true)
	lr.uninstallHooks()
	measured := cfg.Duration - cfg.RampUp
	if measured <= 0 {
		measured = cfg.Duration
	}
	if lr.halted.Load() {
		// An early stop shortens the window the rates are computed over.
		if actual := time.Since(lr.measureFrom); actual > 0 && actual < measured {
			measured = actual
		}
	}
	rep := lr.rec.report(measured)
	lr.mu.Lock()
	rep.FileOps = make(map[id.FileID]int64, len(lr.fileOps))
	for f, c := range lr.fileOps {
		rep.FileOps[f] = c
	}
	rep.Timeline = append([]int64(nil), lr.timeline...)
	kills := append([]int(nil), lr.killOffsets...)
	lr.mu.Unlock()
	if len(kills) > 0 {
		rep.Churn = ChurnSummary(rep.Timeline, kills)
	}
	return rep
}

// halt reports whether the run was stopped early.
func (lr *liveRun) halt() bool { return lr.halted.Load() }

// churnLoop kills a member every ChurnEvery inside the measured window
// and restarts it half a period later.
func (lr *liveRun) churnLoop(deadline time.Time) {
	round := 0
	next := lr.measureFrom.Add(lr.cfg.ChurnEvery)
	for next.Add(lr.cfg.ChurnEvery / 2).Before(deadline) {
		if !lr.sleepUntil(next, deadline) {
			return
		}
		restart := lr.cfg.Churn(round)
		lr.mu.Lock()
		lr.killOffsets = append(lr.killOffsets, int(time.Since(lr.measureFrom)/time.Second))
		lr.mu.Unlock()
		round++
		lr.sleepUntil(next.Add(lr.cfg.ChurnEvery/2), deadline)
		if restart != nil {
			restart()
		}
		next = next.Add(lr.cfg.ChurnEvery)
	}
}

// sleepUntil waits for t, waking early on halt/deadline; it reports
// whether t was reached before either.
func (lr *liveRun) sleepUntil(t, deadline time.Time) bool {
	for {
		now := time.Now()
		if !now.Before(t) {
			return true
		}
		if lr.halt() || !now.Before(deadline) {
			return false
		}
		d := t.Sub(now)
		if d > 50*time.Millisecond {
			d = 50 * time.Millisecond
		}
		time.Sleep(d)
	}
}

// ChurnSummary derives steady/dip/recovery from a per-second ops
// timeline and the disturbance instants (seconds into the window when a
// member was killed, a flash crowd landed, or any other scripted fault
// fired). RunLive applies it to its own churn kills; the scenario-plan
// runner applies it to emulated timelines with fault offsets.
func ChurnSummary(timeline []int64, kills []int) *ChurnReport {
	cr := &ChurnReport{Rounds: len(kills)}
	if len(timeline) == 0 {
		return cr
	}
	// Steady state: the median per-second rate over the full window (the
	// dips pull the mean, the median shrugs them off).
	sorted := append([]int64(nil), timeline...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cr.SteadyOpsPerSec = float64(sorted[len(sorted)/2])
	cr.DipOpsPerSec = cr.SteadyOpsPerSec
	threshold := 0.9 * cr.SteadyOpsPerSec
	for _, k := range kills {
		if k >= len(timeline) {
			continue
		}
		// The kill's blast radius ends at the next kill (or window end).
		end := len(timeline)
		for _, k2 := range kills {
			if k2 > k && k2 < end {
				end = k2
			}
		}
		// Find the worst second, then the first at-threshold second
		// after it. A kill the workload rode through without dipping
		// below threshold counts as zero recovery time.
		dipIdx := k
		for i := k; i < end; i++ {
			if timeline[i] < timeline[dipIdx] {
				dipIdx = i
			}
		}
		if float64(timeline[dipIdx]) < cr.DipOpsPerSec {
			cr.DipOpsPerSec = float64(timeline[dipIdx])
		}
		if float64(timeline[dipIdx]) >= threshold {
			continue
		}
		rec := float64(end - k) // pessimistic: never recovered in window
		for i := dipIdx + 1; i < end; i++ {
			if float64(timeline[i]) >= threshold {
				rec = float64(i - k)
				break
			}
		}
		if rec > cr.RecoverySeconds {
			cr.RecoverySeconds = rec
		}
	}
	return cr
}

// measured reports whether an op issued at start falls inside the
// measurement window (after ramp-up).
func (lr *liveRun) measured(start time.Time) bool {
	return !start.Before(lr.measureFrom) && !lr.stopped.Load()
}

// record observes one completed measured op, charges its file, and
// buckets it on the per-second timeline.
func (lr *liveRun) record(op Op, file id.FileID, d time.Duration) {
	lr.rec.observe(op, d)
	lr.mu.Lock()
	lr.fileOps[file]++
	if b := int(time.Since(lr.measureFrom) / time.Second); b >= 0 && b < 1<<20 {
		for len(lr.timeline) <= b {
			lr.timeline = append(lr.timeline, 0)
		}
		lr.timeline[b]++
	}
	lr.mu.Unlock()
}

// installHooks chains onto the node's OnLevel/OnOutcome hooks. The hook
// slots are atomically swappable, so installation needs no event-loop
// round trip.
func (lr *liveRun) installHooks() {
	lr.prevLevel = lr.n.SetOnLevel(func(e env.Env, f id.FileID, res detect.Result) {
		if lr.prevLevel != nil {
			lr.prevLevel(e, f, res)
		}
		lr.completeWrite(writeKey{file: f, token: res.Token})
	})
	lr.prevOutcome = lr.n.SetOnOutcome(func(e env.Env, o resolve.Outcome) {
		if lr.prevOutcome != nil {
			lr.prevOutcome(e, o)
		}
		// Resolve latency is the initiator-side session duration.
		if o.Active && !o.Aborted && !lr.stopped.Load() {
			lr.rec.observe(OpResolve, o.Phase1+o.Phase2)
		}
	})
}

// uninstallHooks restores the node's original hooks so the run's
// correlation maps stop accumulating once the report is cut.
func (lr *liveRun) uninstallHooks() {
	lr.n.SetOnLevel(lr.prevLevel)
	lr.n.SetOnOutcome(lr.prevOutcome)
}

func (lr *liveRun) completeWrite(k writeKey) {
	lr.mu.Lock()
	w, ok := lr.waiters[k]
	if !ok {
		// Verdict beat the registration (synchronous finalize); leave a
		// marker so registerWrite completes immediately. Skip once the
		// run is over so foreign detections cannot grow the map.
		if !lr.stopped.Load() {
			lr.early[k] = struct{}{}
		}
		lr.mu.Unlock()
		return
	}
	delete(lr.waiters, k)
	lr.mu.Unlock()
	el := time.Since(w.start)
	if lr.measured(w.start) {
		lr.record(OpWrite, k.file, el)
	}
	if w.done != nil {
		w.done <- el
	}
}

func (lr *liveRun) registerWrite(k writeKey, start time.Time, done chan time.Duration) {
	lr.mu.Lock()
	if _, ok := lr.early[k]; ok {
		delete(lr.early, k)
		lr.mu.Unlock()
		el := time.Since(start)
		if lr.measured(start) {
			lr.record(OpWrite, k.file, el)
		}
		if done != nil {
			done <- el
		}
		return
	}
	lr.waiters[k] = writeWait{start: start, done: done}
	lr.mu.Unlock()
}

// issueWrite injects one write into the file's serialization domain; done
// non-nil makes it a closed-loop op.
func (lr *liveRun) issueWrite(file id.FileID, done chan time.Duration) {
	payload := make([]byte, lr.cfg.PayloadBytes)
	start := time.Now()
	lr.inj.InjectFile(file, func(e env.Env) {
		_, token := lr.n.WriteTracked(e, file, "load", payload, float64(len(payload)))
		lr.registerWrite(writeKey{file: file, token: token}, start, done)
	})
}

// issueSync injects a local op (read/hint/resolve dispatch) into the
// file's domain and waits for its execution, recording the
// issue-to-execution latency for read and hint. Resolve latency is
// recorded separately via OnOutcome.
func (lr *liveRun) issueSync(op Op, file id.FileID, wait bool) {
	start := time.Now()
	ran := make(chan struct{})
	lr.inj.InjectFile(file, func(e env.Env) {
		switch op {
		case OpRead:
			lr.n.Read(file)
		case OpHint:
			lr.n.SetHint(file, lr.cfg.HintLevel)
		case OpResolve:
			lr.n.DemandActiveResolution(e, file)
		}
		if op != OpResolve && lr.measured(start) {
			lr.record(op, file, time.Since(start))
		}
		close(ran)
	})
	if wait {
		select {
		case <-ran:
		case <-time.After(lr.cfg.OpTimeout):
		}
	}
}

func (lr *liveRun) closedWorker(w int, deadline time.Time) {
	if lr.cfg.RampUp > 0 && lr.cfg.Workers > 1 {
		// Stagger worker starts across the ramp window.
		time.Sleep(time.Duration(w) * lr.cfg.RampUp / time.Duration(lr.cfg.Workers))
	}
	rng := rand.New(rand.NewSource(lr.cfg.Seed + int64(w)*7919))
	fp := newFilePicker(rng, lr.cfg.Files, lr.cfg.ZipfSkew)
	for time.Now().Before(deadline) && !lr.halt() {
		op := lr.cfg.Mix.Pick(rng)
		file := fp.pick()
		if op == OpWrite {
			done := make(chan time.Duration, 1)
			lr.issueWrite(file, done)
			select {
			case <-done:
			case <-time.After(lr.cfg.OpTimeout):
				lr.rec.timeouts.Inc()
				lr.forgetWaiters()
			}
			continue
		}
		lr.issueSync(op, file, true)
	}
}

// forgetWaiters drops timed-out write waiters so a late verdict does not
// feed a stale channel.
func (lr *liveRun) forgetWaiters() {
	lr.mu.Lock()
	for k, w := range lr.waiters {
		if time.Since(w.start) > lr.cfg.OpTimeout {
			delete(lr.waiters, k)
		}
	}
	lr.mu.Unlock()
}

func (lr *liveRun) openLoop(start, deadline time.Time) {
	rng := rand.New(rand.NewSource(lr.cfg.Seed))
	fp := newFilePicker(rng, lr.cfg.Files, lr.cfg.ZipfSkew)
	// Pace against an absolute schedule (next, not a fixed per-op
	// sleep) so issue overhead does not make the achieved rate
	// systematically undershoot the target.
	next := start
	for {
		now := time.Now()
		if !now.Before(deadline) || lr.halt() {
			return
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			continue
		}
		rate := lr.cfg.Rate
		if lr.cfg.RampUp > 0 && now.Sub(start) < lr.cfg.RampUp {
			frac := float64(now.Sub(start)) / float64(lr.cfg.RampUp)
			if frac < 0.05 {
				frac = 0.05
			}
			rate = lr.cfg.Rate * frac
		}
		op := lr.cfg.Mix.Pick(rng)
		file := fp.pick()
		if op == OpWrite {
			lr.issueWrite(file, nil)
		} else {
			lr.issueSync(op, file, false)
		}
		next = next.Add(time.Duration(float64(time.Second) / rate))
		// Routine sleep overshoot self-corrects by issuing the backlog
		// immediately; only a real stall (>1s behind) resets the
		// schedule so it cannot turn into an unbounded burst.
		if behind := time.Now(); next.Before(behind.Add(-time.Second)) {
			next = behind
		}
	}
}

// drain waits (bounded by OpTimeout) for outstanding write verdicts so a
// run's tail latencies are not silently discarded.
func (lr *liveRun) drain() {
	deadline := time.Now().Add(lr.cfg.OpTimeout)
	for time.Now().Before(deadline) {
		lr.mu.Lock()
		n := len(lr.waiters)
		lr.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}
