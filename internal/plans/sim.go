package plans

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"time"

	"idea/internal/cluster"
	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/health"
	"idea/internal/id"
	"idea/internal/loadgen"
	"idea/internal/membership"
	"idea/internal/resolve"
	"idea/internal/simnet"
	"idea/internal/topview"
	"idea/internal/tracing"
	"idea/internal/vv"
)

// TimelineEvent is one recorded instant of a plan run, placed on the
// run's virtual clock (milliseconds since the schedule origin). Fault
// events carry the fault kind; health transitions carry
// "health_raise" / "health_clear" with the detector in Detail.
type TimelineEvent struct {
	AtMs   int64  `json:"at_ms"`
	Node   string `json:"node,omitempty"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Timeline is the per-plan run artifact cmd/idea-plan emits and the
// determinism regression pins: every field is derived from virtual-time
// quantities (or live measurements on live runs, which make no
// byte-identity promise), so an emulated run of the same plan and seed
// marshals to identical bytes every time.
type Timeline struct {
	Plan string `json:"plan"`
	Seed int64  `json:"seed"`
	// Mode is "sim" for emulated runs, "live" for soak-rig runs.
	Mode string `json:"mode"`
	// DurationMs is the total virtual (or wall) time the run covered.
	DurationMs int64 `json:"duration_ms"`
	// ScheduleHash fingerprints the simulator's full event trace
	// (FNV-64a); two runs with equal hashes executed the same schedule.
	// Empty on live runs.
	ScheduleHash string `json:"schedule_hash,omitempty"`
	// SimEvents counts simulator events executed. Zero on live runs.
	SimEvents int `json:"sim_events,omitempty"`
	// Events interleaves the fault script with every node's health
	// transitions, sorted by time.
	Events []TimelineEvent `json:"events"`
	// Report is the workload's loadgen report (virtual latencies).
	Report *loadgen.Report `json:"report"`
	// Vectors maps "node/file" to the final version vector of every
	// alive node — the convergence evidence.
	Vectors map[string]string `json:"vectors,omitempty"`
	// Verdicts maps node to its final health verdict.
	Verdicts map[string]string `json:"verdicts"`
	// VisibilityP99Ms / ResolutionP99Ms are the trace-derived SLO
	// estimates over Traces merged traces (zero when tracing is off).
	VisibilityP99Ms float64 `json:"visibility_p99_ms,omitempty"`
	ResolutionP99Ms float64 `json:"resolution_p99_ms,omitempty"`
	Traces          int     `json:"traces,omitempty"`
	// Assertions are the plan's evaluated assertions; Pass is their
	// conjunction — the bit cmd/idea-plan turns into an exit code.
	Assertions []AssertionResult `json:"assertions"`
	Pass       bool              `json:"pass"`
}

// RunSim executes the plan on the deterministic simnet emulator: same
// plan, same seed — byte-identical Timeline. seed zero keeps the plan's
// own seed; scratch is where per-node journals live when the topology
// asks for one (empty means a throwaway temp dir).
func RunSim(p Plan, seed int64, scratch string) (*Timeline, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = p.Seed
	}
	if seed == 0 {
		seed = 1
	}
	topo := cluster.Topology{Nodes: cluster.IDs(p.Topology.Nodes), Shards: p.Topology.Shards}
	if p.Topology.Wal {
		if scratch == "" {
			dir, err := os.MkdirTemp("", "idea-plan-")
			if err != nil {
				return nil, fmt.Errorf("plans: %s: journal scratch: %w", p.Name, err)
			}
			defer os.RemoveAll(dir)
			scratch = dir
		}
		topo.WalDir = scratch
	}
	all, files := topo.Nodes, p.FileIDs()
	if p.Topology.Swim {
		topo.Swim = &membership.Config{}
	} else {
		topo.TopLayers = make(map[id.FileID][]id.NodeID, len(files))
		for _, f := range files {
			topo.TopLayers[f] = all
		}
	}
	healthCfg := health.Config{
		Interval:              p.Topology.HealthEvery.D(),
		ConvergenceStallAfter: p.Topology.StallAfter.D(),
		History:               256,
	}
	if p.Topology.Wal {
		// Journal fsyncs hit the real disk even under virtual time. A
		// wall-clock latency threshold would make warn transitions depend
		// on disk speed, so emulated runs park it out of reach: the
		// torn-log critical path is threshold-independent and stays the
		// deterministic assertion surface.
		healthCfg.FsyncSpikeMs = 1e9
	}
	topo.Hook = func(_ id.NodeID, o *core.Options) func(*core.Node) env.Handler {
		o.Gossip.Interval = p.Topology.GossipEvery.D()
		o.Health = healthCfg
		o.Tracing.SampleEvery = p.Topology.TraceSampleEvery
		o.Resolve.Policy = resolve.MergeAll
		return nil
	}

	lat, err := p.Topology.latencyModel()
	if err != nil {
		return nil, err
	}
	var trace bytes.Buffer
	sim, err := cluster.NewSim(topo, simnet.Config{
		Seed:       seed,
		Latency:    lat,
		Loss:       p.Topology.Loss,
		EventTrace: &trace,
	})
	if err != nil {
		return nil, fmt.Errorf("plans: %s: %w", p.Name, err)
	}
	defer sim.Close()
	c, cores := sim.C, sim.Nodes
	origin := c.VirtualNow()

	if h := p.Workload.PreHint; h > 0 {
		for _, nid := range all {
			for _, f := range files {
				if err := cores[nid].SetHint(f, h); err != nil {
					return nil, fmt.Errorf("plans: %s: pre-hint: %w", p.Name, err)
				}
			}
		}
	}

	cfg := p.LoadgenConfig(seed, 0)
	er := loadgen.BeginEmulated(cfg, c, cores, nil)
	// rebootAt schedules a fresh incarnation of nid — bootstrapping via the
	// seed node with zero static configuration and a fresh journal
	// directory, exactly like a replaced process — and re-attaches the
	// session's verdict hooks to it.
	rebootAt := func(at time.Duration, nid id.NodeID) error {
		mk, err := sim.Factory(nid)
		if err != nil {
			return fmt.Errorf("plans: %s: %w", p.Name, err)
		}
		c.AddAt(at, nid, func() env.Handler {
			h := mk()
			er.Attach(nid)
			return h
		})
		return nil
	}

	// Script the faults. Node-scoped faults ride the event queue
	// (CrashAt / AddAt / CallAt); partition and heal mutate cluster link
	// state, so they apply between RunUntil segments, like the
	// determinism regressions do.
	tl := &Timeline{Plan: p.Name, Seed: seed, Mode: "sim"}
	event := func(at time.Duration, nid id.NodeID, kind, detail string) {
		ev := TimelineEvent{AtMs: at.Milliseconds(), Kind: kind, Detail: detail}
		if nid != 0 {
			ev.Node = nid.String()
		}
		tl.Events = append(tl.Events, ev)
	}
	type segment struct {
		at    time.Duration
		apply func()
	}
	var (
		segs         []segment
		disturbances []int
		churnRounds  int
		alive        = make(map[id.NodeID]bool, len(all))
	)
	for _, nid := range all {
		alive[nid] = true
	}
	pairwise := func(a, b []int, f func(x, y id.NodeID)) {
		for _, x := range a {
			for _, y := range b {
				f(id.NodeID(x), id.NodeID(y))
			}
		}
	}
	for i, f := range p.Faults {
		at, nid := f.At.D(), id.NodeID(f.Node)
		switch f.Kind {
		case FaultPartition:
			fa, fb := f.A, f.B
			segs = append(segs, segment{at, func() { pairwise(fa, fb, func(x, y id.NodeID) { c.Partition(x, y) }) }})
			event(at, 0, f.Kind, fmt.Sprintf("a=%v b=%v", f.A, f.B))
		case FaultHeal:
			fa, fb := f.A, f.B
			segs = append(segs, segment{at, func() { pairwise(fa, fb, func(x, y id.NodeID) { c.Heal(x, y) }) }})
			event(at, 0, f.Kind, fmt.Sprintf("a=%v b=%v", f.A, f.B))
		case FaultCrash:
			c.CrashAt(at, nid)
			alive[nid] = false
			disturbances = append(disturbances, int(at/time.Second))
			event(at, nid, f.Kind, "")
		case FaultRestart, FaultJoin:
			if err := rebootAt(at, nid); err != nil {
				return nil, err
			}
			alive[nid] = true
			detail := "rejoin via seed"
			if f.Kind == FaultJoin {
				detail = "bootstrap via seed"
			}
			event(at, nid, f.Kind, detail)
		case FaultChurn:
			_, every, _ := p.ChurnSpec(cfg.Duration)
			for k := every; k+every/2 < cfg.Duration; k += every {
				c.CrashAt(k, nid)
				if err := rebootAt(k+every/2, nid); err != nil {
					return nil, err
				}
				churnRounds++
				disturbances = append(disturbances, int(k/time.Second))
				event(k, nid, "crash", fmt.Sprintf("churn round %d", churnRounds))
				event(k+every/2, nid, "restart", fmt.Sprintf("churn round %d", churnRounds))
			}
			alive[nid] = true
		case FaultFlashCrowd:
			hot := files[0]
			payload := make([]byte, 32)
			step := time.Duration(float64(time.Second) / f.Rate)
			if step <= 0 {
				step = time.Millisecond
			}
			var n int
			for t := at; t < at+f.Dur.D(); t += step {
				src := all[(int(seed)+i+n)%len(all)]
				n++
				t := t
				c.CallAtFile(t, src, hot, func(e env.Env) {
					cores[src].Write(e, hot, "crowd", payload, 0)
				})
			}
			event(at, 0, f.Kind, fmt.Sprintf("%.0f writes/s on %s for %v", f.Rate, hot, f.Dur.D()))
		case FaultWalTorn:
			msg := f.Msg
			if msg == "" {
				msg = p.Name
			}
			c.CallAt(at, nid, func(e env.Env) {
				if w := cores[nid].Journal(); w != nil {
					w.InjectError(msg)
				}
			})
			event(at, nid, f.Kind, msg)
		case FaultWalSlow:
			brake := f.Dur.D()
			c.CallAt(at, nid, func(e env.Env) {
				if w := cores[nid].Journal(); w != nil {
					w.InjectSyncDelay(brake)
				}
			})
			event(at, nid, f.Kind, brake.String())
		}
	}

	// Drive: workload window (applying partition/heal at their instants),
	// then a drain for in-flight verdicts.
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].at < segs[j].at })
	end := cfg.Duration + 10*time.Second
	for _, s := range segs {
		c.RunUntil(s.at)
		s.apply()
		if s.at > end {
			end = s.at
		}
	}
	c.RunUntil(end)
	report := er.Finish()

	// Sample the trace journals now, before the convergence sweeps: the
	// visibility SLO is a claim about the workload window, and the final
	// sweeps would otherwise count a late joiner's bulk catch-up applies
	// as tail visibility latency.
	var dumps []tracing.Dump
	if p.Topology.TraceSampleEvery > 0 {
		for _, nid := range all {
			if n := cores[nid]; n != nil {
				if tr := n.Tracer(); tr != nil {
					dumps = append(dumps, tracing.DumpOf(tr, 0, ""))
				}
			}
		}
	}

	// Final resolution sweeps: every alive node demands active
	// resolution on every file, twice, so merged state propagates even
	// across distinct top layers; then the cluster settles.
	aliveIDs := make([]id.NodeID, 0, len(alive))
	for nid, ok := range alive {
		if ok {
			aliveIDs = append(aliveIDs, nid)
		}
	}
	sort.Slice(aliveIDs, func(i, j int) bool { return aliveIDs[i] < aliveIDs[j] })
	sweep := c.Elapsed() + time.Second
	for pass := 0; pass < 2; pass++ {
		for _, nid := range aliveIDs {
			nid := nid
			for _, f := range files {
				f := f
				c.CallAtFile(sweep, nid, f, func(e env.Env) {
					cores[nid].DemandActiveResolution(e, f)
				})
			}
			sweep += 2 * time.Second
		}
	}
	c.RunUntil(sweep + 10*time.Second)

	// Collect the outcome: vectors, health, traces — all virtual-time.
	o := Outcome{
		Report:       report,
		Statuses:     make(map[id.NodeID]health.Status, len(aliveIDs)),
		Converged:    true,
		Disturbances: disturbances,
		ChurnRounds:  churnRounds,
	}
	tl.Vectors = make(map[string]string, len(aliveIDs)*len(files))
	tl.Verdicts = make(map[string]string, len(aliveIDs))
	for _, f := range files {
		base := cores[aliveIDs[0]].Store().Open(f).Vector()
		for _, nid := range aliveIDs {
			v := cores[nid].Store().Open(f).Vector()
			tl.Vectors[fmt.Sprintf("%v/%s", nid, f)] = v.String()
			if vv.Compare(v, base) != vv.Equal {
				o.Converged = false
			}
		}
	}
	for _, nid := range aliveIDs {
		st := cores[nid].Health().Status()
		o.Statuses[nid] = st
		tl.Verdicts[nid.String()] = st.Verdict.String()
		for _, ev := range st.Recent {
			kind := "health_clear"
			if ev.Raised {
				kind = "health_raise"
			}
			tl.Events = append(tl.Events, TimelineEvent{
				AtMs:   time.Unix(0, ev.At).Sub(origin).Milliseconds(),
				Node:   nid.String(),
				Kind:   kind,
				Detail: ev.Detector + "/" + ev.Severity.String(),
			})
		}
	}
	if len(dumps) > 0 {
		o.VisibilityP99Ms, _, o.Traces = topview.SLOFromDumps(dumps)
		tl.VisibilityP99Ms = o.VisibilityP99Ms
		_, tl.ResolutionP99Ms, tl.Traces = topview.SLOFromDumps(dumps)
	}
	sort.SliceStable(tl.Events, func(i, j int) bool {
		a, b := tl.Events[i], tl.Events[j]
		if a.AtMs != b.AtMs {
			return a.AtMs < b.AtMs
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
	tl.DurationMs = c.Elapsed().Milliseconds()
	tl.SimEvents = c.Events()
	h := fnv.New64a()
	h.Write(trace.Bytes())
	tl.ScheduleHash = fmt.Sprintf("%016x", h.Sum64())
	tl.Report = report
	tl.Assertions = Evaluate(p, o)
	tl.Pass = Pass(tl.Assertions)
	return tl, nil
}
