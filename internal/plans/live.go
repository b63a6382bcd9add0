package plans

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/loadgen"
	"idea/internal/membership"
	"idea/internal/topview"
	"idea/internal/tracing"
	"idea/internal/vv"
)

// liveFaults are the fault kinds injectable against real processes. The
// others (partition, crash without restart, scripted joins) need
// network-level tooling the rig does not have; plans using them are
// simnet-only.
var liveFaults = map[string]bool{
	FaultChurn:      true,
	FaultFlashCrowd: true,
	FaultWalTorn:    true,
	FaultWalSlow:    true,
}

// liveSwim is the failure-detector tuning live plan runs use: the same
// aggressive timeouts the live membership acceptance tests run with, so
// a killed member is suspected, confirmed, and evicted well inside one
// churn half-period.
func liveSwim() *membership.Config {
	return &membership.Config{
		ProbeInterval:  150 * time.Millisecond,
		ProbeTimeout:   75 * time.Millisecond,
		SuspectTimeout: 450 * time.Millisecond,
		JoinRetry:      300 * time.Millisecond,
	}
}

// scaleAssertions rescales the plan's window-proportional floors when a
// duration override stretches or shrinks the workload window: min_ops
// means "this op volume over the plan's declared window", and the churn
// round count likewise grows with the window (ChurnSpec derives the
// period from it). Rate floors, verdict caps, and anomaly expectations
// are duration-independent and stay untouched.
func scaleAssertions(p Plan, duration time.Duration) Plan {
	window := p.Workload.Duration.D()
	if duration <= 0 || window <= 0 || duration == window {
		return p
	}
	ratio := float64(duration) / float64(window)
	p.Assert.MinOps = int64(float64(p.Assert.MinOps) * ratio)
	if p.Assert.Envelope != nil && p.Assert.Envelope.MinRounds > 0 {
		env := *p.Assert.Envelope
		if env.MinRounds = int(float64(env.MinRounds) * ratio); env.MinRounds < 1 {
			env.MinRounds = 1
		}
		p.Assert.Envelope = &env
	}
	return p
}

// RunLive executes a live-tagged plan against a real TCP cluster — the
// soak rig path: every node listens on a loopback socket, serves its
// admin surface, and a collector samples cluster health the way
// cmd/idea-top does. duration stretches the plan's workload window when
// positive (the nightly soak runs the same plan over SOAK_DURATION);
// out, when non-empty, receives the soak artifact set (workload report,
// health timeline, per-node metrics/trace/flight dumps). Live runs make
// no byte-identity promise — wall clocks and real schedulers are in
// play — but they evaluate the same assertions as the emulated runs,
// plus rig invariants (every member rejoined, no node unreachable).
func RunLive(p Plan, seed int64, duration time.Duration, out string) (*Timeline, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !p.Live() {
		return nil, fmt.Errorf("plans: %s is not tagged live", p.Name)
	}
	for _, f := range p.Faults {
		if !liveFaults[f.Kind] {
			return nil, fmt.Errorf("plans: %s: fault %s is not live-injectable", p.Name, f.Kind)
		}
	}
	if seed == 0 {
		seed = p.Seed
	}
	if duration <= 0 {
		duration = p.Workload.Duration.D()
	}
	start := time.Now()

	all := cluster.IDs(p.Topology.Nodes)
	files := p.FileIDs()
	topo := cluster.Topology{
		Nodes:     all,
		TopLayers: make(map[id.FileID][]id.NodeID, len(files)),
		Shards:    p.Topology.Shards,
		Hook: func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
			o.Tracing = tracing.Config{SampleEvery: p.Topology.TraceSampleEvery, Buffer: 65536}
			o.Health = health.Config{
				Interval:              p.Topology.HealthEvery.D(),
				ConvergenceStallAfter: p.Topology.StallAfter.D(),
				History:               256,
			}
			return nil
		},
	}
	for _, f := range files {
		topo.TopLayers[f] = all
	}
	if p.Topology.Swim {
		topo.Swim = liveSwim()
	}
	if p.Topology.Wal {
		dir, err := os.MkdirTemp("", "idea-plan-wal-")
		if err != nil {
			return nil, fmt.Errorf("plans: %s: journal scratch: %w", p.Name, err)
		}
		defer os.RemoveAll(dir)
		topo.WalDir = dir
	}
	lb, err := cluster.NewLoopback(topo)
	if err != nil {
		return nil, fmt.Errorf("plans: %s: %w", p.Name, err)
	}
	defer lb.Close()
	node := lb.Node

	// mu guards the admin handles, the health timeline and the rejoin
	// failures, all touched by the churn callback and the collector.
	var mu sync.Mutex

	// Admin surface plus the idea-top-style collector.
	admins := make(map[id.NodeID]*adminHandle, len(all))
	serveAdmin := func(nid id.NodeID) error {
		srv, err := cluster.ServeAdmin("127.0.0.1:0", node(nid).N)
		if err != nil {
			return err
		}
		mu.Lock()
		admins[nid].set(srv.Addr(), srv.Close)
		mu.Unlock()
		return nil
	}
	for _, nid := range all {
		admins[nid] = &adminHandle{}
		if err := serveAdmin(nid); err != nil {
			return nil, err
		}
	}
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, a := range admins {
			a.close()
		}
	}()
	adminBases := func() []string {
		mu.Lock()
		defer mu.Unlock()
		bases := make([]string, 0, len(admins))
		for _, nid := range all {
			if addr := admins[nid].addr; addr != "" {
				bases = append(bases, addr)
			}
		}
		return bases
	}
	client := &http.Client{Timeout: 5 * time.Second}
	var healthTimeline []topview.ClusterSample
	stopCollect := make(chan struct{})
	var collectDone sync.WaitGroup
	collectDone.Add(1)
	go func() {
		defer collectDone.Done()
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopCollect:
				return
			case <-tick.C:
				cs := topview.Collect(client, adminBases(), false)
				mu.Lock()
				healthTimeline = append(healthTimeline, cs)
				mu.Unlock()
			}
		}
	}()

	tl := &Timeline{Plan: p.Name, Seed: seed, Mode: "live"}
	var evMu sync.Mutex
	event := func(nid id.NodeID, kind, detail string) {
		ev := TimelineEvent{AtMs: time.Since(start).Milliseconds(), Kind: kind, Detail: detail}
		if nid != 0 {
			ev.Node = nid.String()
		}
		evMu.Lock()
		tl.Events = append(tl.Events, ev)
		evMu.Unlock()
	}

	// Fault script. Churn rides the loadgen driver (it owns the cadence);
	// wal and flash-crowd faults ride wall-clock timers.
	cfg := p.LoadgenConfig(seed, duration)
	cfg.OpTimeout = 5 * time.Second
	var rejoinFailures []string
	if victim, every, ok := p.ChurnSpec(duration); ok {
		cfg.ChurnEvery = every
		cfg.Churn = func(round int) (restart func()) {
			event(victim, "crash", fmt.Sprintf("churn round %d", round+1))
			node(victim).Close()
			mu.Lock()
			admins[victim].close()
			mu.Unlock()
			return func() {
				if _, err := lb.Rejoin(victim); err != nil {
					// The closed node stays current, which would silently
					// drop callbacks and hang the convergence phase —
					// record and judge after the workload.
					mu.Lock()
					rejoinFailures = append(rejoinFailures, fmt.Sprintf("round %d: %v", round+1, err))
					mu.Unlock()
					return
				}
				event(victim, "restart", fmt.Sprintf("churn round %d", round+1))
				if err := serveAdmin(victim); err != nil {
					mu.Lock()
					rejoinFailures = append(rejoinFailures, fmt.Sprintf("round %d admin: %v", round+1, err))
					mu.Unlock()
				}
			}
		}
	}
	var timers []*time.Timer
	defer func() {
		for _, tm := range timers {
			tm.Stop()
		}
	}()
	stopCrowd := make(chan struct{})
	defer close(stopCrowd)
	for _, f := range p.Faults {
		f := f
		nid := id.NodeID(f.Node)
		switch f.Kind {
		case FaultWalTorn:
			msg := f.Msg
			if msg == "" {
				msg = p.Name
			}
			timers = append(timers, time.AfterFunc(f.At.D(), func() {
				if w := node(nid).N.Journal(); w != nil {
					w.InjectError(msg)
					event(nid, f.Kind, msg)
				}
			}))
		case FaultWalSlow:
			brake := f.Dur.D()
			timers = append(timers, time.AfterFunc(f.At.D(), func() {
				if w := node(nid).N.Journal(); w != nil {
					w.InjectSyncDelay(brake)
					event(nid, f.Kind, brake.String())
				}
			}))
		case FaultFlashCrowd:
			hot := files[0]
			rate, dur := f.Rate, f.Dur.D()
			timers = append(timers, time.AfterFunc(f.At.D(), func() {
				event(0, f.Kind, fmt.Sprintf("%.0f writes/s on %s for %v", rate, hot, dur))
				payload := make([]byte, 32)
				tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
				defer tick.Stop()
				deadline := time.Now().Add(dur)
				for i := 0; time.Now().Before(deadline); i++ {
					select {
					case <-stopCrowd:
						return
					case <-tick.C:
						src := all[i%len(all)]
						ln := node(src)
						ln.InjectFile(hot, func(e env.Env) {
							ln.N.Write(e, hot, "crowd", payload, 0)
						})
					}
				}
			}))
		}
	}

	if h := p.Workload.PreHint; h > 0 {
		for _, nid := range all {
			for _, f := range files {
				node(nid).N.SetHint(f, h)
			}
		}
	}

	driver := node(all[0])
	report := loadgen.RunLive(cfg, driver.N, driver, driver.Metrics())

	// Convergence: a resolution sweep from the driver, then every node
	// must reach vector equality on every file (bounded; a live cluster
	// gets 60 seconds of grace after load end).
	converged := liveConverge(node, all, files, 60*time.Second)

	// Give detectors whose clear lags the final frontier advance a
	// chance before judging (health ticks every 2s live).
	limit := health.Critical
	if p.Assert.MaxFinalVerdict != "" {
		limit = parseVerdict(p.Assert.MaxFinalVerdict)
	}
	final := topview.Collect(client, adminBases(), false)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if final.Unreachable == 0 && (final.Verdict <= limit || p.Assert.MinUnackedCritical > 0) {
			break
		}
		time.Sleep(2 * time.Second)
		final = topview.Collect(client, adminBases(), false)
	}
	close(stopCollect)
	collectDone.Wait()
	mu.Lock()
	healthTimeline = append(healthTimeline, final)
	mu.Unlock()

	o := Outcome{
		Report:    report,
		Statuses:  make(map[id.NodeID]health.Status, len(all)),
		Converged: converged,
	}
	if report.Churn != nil {
		o.ChurnRounds = report.Churn.Rounds
	}
	tl.Vectors = make(map[string]string, len(all)*len(files))
	tl.Verdicts = make(map[string]string, len(all))
	var dumps []tracing.Dump
	for _, nid := range all {
		ln := node(nid)
		st := ln.N.Health().Status()
		o.Statuses[nid] = st
		tl.Verdicts[nid.String()] = st.Verdict.String()
		for _, ev := range st.Recent {
			kind := "health_clear"
			if ev.Raised {
				kind = "health_raise"
			}
			tl.Events = append(tl.Events, TimelineEvent{
				AtMs:   time.Unix(0, ev.At).Sub(start).Milliseconds(),
				Node:   nid.String(),
				Kind:   kind,
				Detail: ev.Detector + "/" + ev.Severity.String(),
			})
		}
		for _, f := range files {
			if v := liveVector(ln, f); v != nil {
				tl.Vectors[fmt.Sprintf("%v/%s", nid, f)] = v.String()
			}
		}
		if p.Topology.TraceSampleEvery > 0 {
			if tr := ln.N.Tracer(); tr != nil {
				dumps = append(dumps, tracing.DumpOf(tr, 0, ""))
			}
		}
	}
	if len(dumps) > 0 {
		o.VisibilityP99Ms, tl.ResolutionP99Ms, o.Traces = topview.SLOFromDumps(dumps)
		tl.VisibilityP99Ms, tl.Traces = o.VisibilityP99Ms, o.Traces
	}

	tl.DurationMs = time.Since(start).Milliseconds()
	tl.Report = report
	tl.Assertions = Evaluate(scaleAssertions(p, duration), o)
	// Rig invariants, judged alongside the plan's own contract.
	tl.Assertions = append(tl.Assertions,
		AssertionResult{Name: "live:rejoin", OK: len(rejoinFailures) == 0,
			Detail: fmt.Sprintf("%d rejoin failures %v", len(rejoinFailures), rejoinFailures)},
		AssertionResult{Name: "live:reachable", OK: final.Unreachable == 0,
			Detail: fmt.Sprintf("%d nodes unreachable at final sweep", final.Unreachable)},
	)
	tl.Pass = Pass(tl.Assertions)

	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return tl, err
		}
		writeArtifact(out, "report.json", report)
		writeArtifact(out, "health-timeline.json", healthTimeline)
		for _, nid := range all {
			ln := node(nid)
			writeArtifact(out, fmt.Sprintf("metrics-node%d.json", nid), ln.Metrics().Snapshot())
			if tr := ln.N.Tracer(); tr != nil {
				writeArtifact(out, fmt.Sprintf("trace-node%d.json", nid), tracing.DumpOf(tr, 0, ""))
			}
			writeArtifact(out, fmt.Sprintf("flight-node%d.json", nid), health.DumpOf(ln.N.ID(), ln.N.Flight()))
		}
	}
	return tl, nil
}

// adminHandle tracks one node's admin server across churn restarts.
type adminHandle struct {
	addr    string
	closeFn func() error
}

func (a *adminHandle) set(addr string, closeFn func() error) {
	a.addr, a.closeFn = addr, closeFn
}

func (a *adminHandle) close() {
	if a.closeFn != nil {
		a.closeFn()
		a.addr, a.closeFn = "", nil
	}
}

// liveVector reads one node's vector for f inside the owning shard,
// time-bounded: a dead node must fail the read, not hang the run.
func liveVector(ln *cluster.LiveNode, f id.FileID) *vv.Vector {
	ch := make(chan *vv.Vector, 1)
	ln.InjectFile(f, func(e env.Env) {
		ch <- ln.N.Store().Open(f).Vector()
	})
	select {
	case v := <-ch:
		return v
	case <-time.After(30 * time.Second):
		return nil
	}
}

// liveConverge demands resolution sweeps from the first node and polls
// for vector equality across every node on every file.
func liveConverge(node func(id.NodeID) *cluster.LiveNode, all []id.NodeID, files []id.FileID, grace time.Duration) bool {
	deadline := time.Now().Add(grace)
	for {
		driver := node(all[0])
		for _, f := range files {
			f := f
			done := make(chan struct{})
			driver.InjectFile(f, func(e env.Env) {
				driver.N.DemandActiveResolution(e, f)
				close(done)
			})
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				return false
			}
		}
		time.Sleep(2 * time.Second)
		converged := true
	check:
		for _, f := range files {
			want := liveVector(driver, f)
			if want == nil {
				converged = false
				break
			}
			for _, nid := range all[1:] {
				got := liveVector(node(nid), f)
				if got == nil || vv.Compare(got, want) != vv.Equal {
					converged = false
					break check
				}
			}
		}
		if converged {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
	}
}

func writeArtifact(dir, name string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return
	}
	os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
