// Package plans is the scenario-plan harness: a plan is a named,
// JSON-serializable document combining a topology (node count, latency
// class, asymmetric links), a fault script (partitions, churn storms,
// flash crowds, slow/torn disks), a workload (rate, op mix, zipf
// hot-key skew), and assertions (vector convergence, health verdict and
// anomaly expectations, ops/sec dip + recovery envelope, trace-derived
// visibility p99). Every plan runs deterministically on the simnet
// emulator — same seed, byte-identical timeline — and plans whose
// faults are injectable against real processes also run on the live
// soak rig. cmd/idea-plan lists, filters, and runs the registry;
// docs/PLAN_AUTHORING.md is the authoring guide.
package plans

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"idea/internal/id"
	"idea/internal/loadgen"
	"idea/internal/simnet"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("12s", "150ms") so plan JSON stays human-authorable.
type Duration time.Duration

// D returns the underlying time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler, accepting duration strings
// and (for hand-written JSON) bare nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("plans: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("plans: duration must be a string or nanoseconds: %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Plan is one named scenario. The zero values of most knobs select the
// subsystem defaults documented on each field; Validate reports what a
// runner would reject.
type Plan struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Tags select plan subsets: "smoke" rides tier-1 CI, "nightly" the
	// scheduled matrix, "live" marks plans whose faults are injectable
	// against real processes (the soak rig path).
	Tags []string `json:"tags,omitempty"`
	// Seed is the default replay seed; runners may override it.
	Seed     int64      `json:"seed"`
	Topology Topology   `json:"topology"`
	Workload Workload   `json:"workload"`
	Faults   []Fault    `json:"faults,omitempty"`
	Assert   Assertions `json:"assert"`
}

// Topology shapes the cluster under test.
type Topology struct {
	// Nodes is the member count; IDs run 1..Nodes.
	Nodes int `json:"nodes"`
	// Shards is the per-node serialization-domain count; zero means 1.
	Shards int `json:"shards,omitempty"`
	// Files is how many shared files the workload spreads over; zero
	// means 1. File IDs are "f00".."fNN".
	Files int `json:"files,omitempty"`
	// Latency names the link-latency class: "lan" (constant 2ms),
	// "wan" (the paper's log-normal PlanetLab model), "constant:25ms",
	// or "uniform:10ms-80ms". Empty means "lan".
	Latency string `json:"latency,omitempty"`
	// Links overrides individual ordered pairs — asymmetric routes,
	// one slow replica, a satellite hop — on top of the Latency class.
	Links []Link `json:"links,omitempty"`
	// Loss is the probability a message is dropped (emulated runs).
	Loss float64 `json:"loss,omitempty"`
	// Swim enables SWIM dynamic membership (required by churn/join
	// faults); false pins a static two-layer overlay over all nodes.
	Swim bool `json:"swim,omitempty"`
	// Wal attaches a write-ahead journal to every node (required by
	// wal_torn / wal_slow faults).
	Wal bool `json:"wal,omitempty"`
	// TraceSampleEvery enables causal tracing, sampling one write in N
	// (required by the visibility_p99 assertion). Zero disables.
	TraceSampleEvery int `json:"trace_sample_every,omitempty"`
	// GossipEvery is the bottom-layer sweep period; zero keeps the
	// gossip default.
	GossipEvery Duration `json:"gossip_every,omitempty"`
	// HealthEvery is the health-engine tick; zero keeps the engine
	// default (2s).
	HealthEvery Duration `json:"health_every,omitempty"`
	// StallAfter tunes the convergence-stall detector's patience; zero
	// keeps the engine default (45s).
	StallAfter Duration `json:"stall_after,omitempty"`
}

// Link is one ordered-pair latency override: messages From -> To take
// OneWay (plus the class jitter); the reverse direction keeps the class
// latency unless overridden by its own Link.
type Link struct {
	From   int      `json:"from"`
	To     int      `json:"to"`
	OneWay Duration `json:"one_way"`
}

// Workload parameterizes the loadgen mix the plan rides.
type Workload struct {
	// Rate is the open-loop target in ops/sec (emulated runs pace the
	// whole schedule from it; zero means 20).
	Rate float64 `json:"rate"`
	// Duration is the measured window.
	Duration Duration `json:"duration"`
	// RampUp linearly scales the rate from zero over this lead-in.
	RampUp Duration `json:"ramp_up,omitempty"`
	// Workers is the closed-loop concurrency used by live runs.
	Workers int `json:"workers,omitempty"`
	// Mix weighs write/read/hint/resolve; zero means pure writes.
	Mix loadgen.Mix `json:"mix"`
	// ZipfSkew skews file choice toward the head (hot keys) when > 1.
	ZipfSkew float64 `json:"zipf_skew,omitempty"`
	// PayloadBytes sizes write payloads; zero means 64.
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// HintLevel is what OpHint sets; zero means 0.9.
	HintLevel float64 `json:"hint_level,omitempty"`
	// PreHint, when > 0, sets this consistency hint on every file of
	// every node before load starts — the knob that makes detection
	// trigger resolution sessions (update bodies flow, not just
	// digests).
	PreHint float64 `json:"pre_hint,omitempty"`
}

// Fault kinds — the scriptable vocabulary. docs/PLAN_AUTHORING.md
// describes each with its parameters and live-injectability.
const (
	// FaultPartition cuts every link between groups A and B at At.
	FaultPartition = "partition"
	// FaultHeal reconnects every pair cut between A and B.
	FaultHeal = "heal"
	// FaultCrash kills Node at At (no clean shutdown; its timers and
	// in-flight messages die with it).
	FaultCrash = "crash"
	// FaultRestart boots a fresh incarnation of Node at At, rejoining
	// via seed node 1 (requires Topology.Swim).
	FaultRestart = "restart"
	// FaultJoin adds brand-new Node at At, bootstrapping from seed
	// node 1 with zero static configuration (requires Topology.Swim).
	FaultJoin = "join"
	// FaultChurn is the storm: kill Node every Every, restart it half a
	// period later, for the rest of the run. Every zero derives the
	// soak cadence (duration/8, floored at 10s). Live-injectable.
	FaultChurn = "churn"
	// FaultFlashCrowd superimposes Rate extra writes/sec on the single
	// hottest file for Dur starting at At.
	FaultFlashCrowd = "flash_crowd"
	// FaultWalTorn latches a sticky journal error on Node at At — the
	// torn-log drill; the node's health must escalate to critical.
	// Live-injectable. Requires Topology.Wal.
	FaultWalTorn = "wal_torn"
	// FaultWalSlow brakes Node's fsyncs by Dur from At on (Dur zero
	// releases the brake). Live-injectable. Requires Topology.Wal.
	FaultWalSlow = "wal_slow"
)

// Fault is one scripted event. Which parameter fields apply depends on
// Kind; Validate rejects contradictions.
type Fault struct {
	At   Duration `json:"at"`
	Kind string   `json:"kind"`
	// A and B are the partition/heal groups (node IDs).
	A []int `json:"a,omitempty"`
	B []int `json:"b,omitempty"`
	// Node targets crash/restart/join/churn/wal faults.
	Node int `json:"node,omitempty"`
	// Every is the churn period; zero derives duration/8 (>= 10s).
	Every Duration `json:"every,omitempty"`
	// Dur is the flash crowd's length or the wal_slow brake.
	Dur Duration `json:"dur,omitempty"`
	// Rate is the flash crowd's extra write rate (ops/sec).
	Rate float64 `json:"rate,omitempty"`
	// Msg labels wal_torn injections (defaults to the plan name).
	Msg string `json:"msg,omitempty"`
}

// ExpectAnomaly is one health expectation: some node must raise
// Detector at Severity during the run; Cleared additionally requires
// the anomaly to have cleared again by the end.
type ExpectAnomaly struct {
	Detector string `json:"detector"`
	Severity string `json:"severity,omitempty"` // "warn" | "critical"; empty accepts either
	Cleared  bool   `json:"cleared,omitempty"`
}

// Envelope bounds how the workload rides through the script's
// disturbances, judged against the per-second completion timeline.
type Envelope struct {
	// MinSteadyOpsPerSec floors the median completion rate.
	MinSteadyOpsPerSec float64 `json:"min_steady_ops_per_sec,omitempty"`
	// MaxRecoverySeconds caps how long the rate may stay below 90% of
	// steady state after a disturbance.
	MaxRecoverySeconds float64 `json:"max_recovery_seconds,omitempty"`
	// MinRounds floors the churn rounds executed (churn fault plans).
	MinRounds int `json:"min_rounds,omitempty"`
}

// Assertions is the plan's machine-checkable outcome contract.
type Assertions struct {
	// Converged demands vector equality across every alive node on
	// every file after a final resolution sweep.
	Converged bool `json:"converged,omitempty"`
	// MinOps floors the completed-op count.
	MinOps int64 `json:"min_ops,omitempty"`
	// MaxTimeouts caps writes whose verdicts never arrived; nil skips
	// the check (note 0 is a meaningful bound).
	MaxTimeouts *int64 `json:"max_timeouts,omitempty"`
	// Expect lists anomalies the script must provoke.
	Expect []ExpectAnomaly `json:"expect,omitempty"`
	// Forbid lists detectors no node may ever raise. Listing
	// staleness_violation is how a plan asserts the paper's staleness
	// bound was honored throughout.
	Forbid []string `json:"forbid,omitempty"`
	// MaxFinalVerdict caps the worst per-node verdict at the end:
	// "healthy", "degraded", or "critical". Empty skips the check.
	MaxFinalVerdict string `json:"max_final_verdict,omitempty"`
	// MinUnackedCritical floors the unacknowledged-critical count at
	// the end — how a torn-log drill asserts the operator gate would
	// actually trip.
	MinUnackedCritical int `json:"min_unacked_critical,omitempty"`
	// Envelope bounds the ops/sec dip + recovery through disturbances.
	Envelope *Envelope `json:"envelope,omitempty"`
	// VisibilityP99MaxMs caps the trace-derived write-visibility p99
	// (requires Topology.TraceSampleEvery).
	VisibilityP99MaxMs float64 `json:"visibility_p99_max_ms,omitempty"`
}

// HasTag reports whether the plan carries tag.
func (p Plan) HasTag(tag string) bool {
	for _, t := range p.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Live reports whether every scripted fault is injectable against real
// processes, i.e. the plan can run on the live soak rig.
func (p Plan) Live() bool { return p.HasTag("live") }

// FileIDs returns the plan's file set ("f00".."fNN").
func (p Plan) FileIDs() []id.FileID {
	n := p.Topology.Files
	if n <= 0 {
		n = 1
	}
	files := make([]id.FileID, n)
	for i := range files {
		files[i] = id.FileID(fmt.Sprintf("f%02d", i))
	}
	return files
}

// ChurnSpec extracts the plan's churn fault resolved against duration:
// the victim and the kill period (Every zero derives the soak cadence,
// duration/8 floored at 10 seconds). ok is false when the script has no
// churn fault.
func (p Plan) ChurnSpec(duration time.Duration) (victim id.NodeID, every time.Duration, ok bool) {
	for _, f := range p.Faults {
		if f.Kind != FaultChurn {
			continue
		}
		every = f.Every.D()
		if every <= 0 {
			every = duration / 8
			if every < 10*time.Second {
				every = 10 * time.Second
			}
		}
		return id.NodeID(f.Node), every, true
	}
	return 0, 0, false
}

// LoadgenConfig derives the loadgen configuration both runners share.
// duration overrides the plan's workload window when positive (the soak
// rig stretches the same plan over SOAK_DURATION).
func (p Plan) LoadgenConfig(seed int64, duration time.Duration) loadgen.Config {
	if duration <= 0 {
		duration = p.Workload.Duration.D()
	}
	return loadgen.Config{
		Seed:         seed,
		Duration:     duration,
		Rate:         p.Workload.Rate,
		RampUp:       p.Workload.RampUp.D(),
		Workers:      p.Workload.Workers,
		Mix:          p.Workload.Mix,
		Files:        p.FileIDs(),
		ZipfSkew:     p.Workload.ZipfSkew,
		PayloadBytes: p.Workload.PayloadBytes,
		HintLevel:    p.Workload.HintLevel,
	}
}

// latencyModel parses Topology.Latency plus Links into a simnet model.
func (t Topology) latencyModel() (simnet.LatencyModel, error) {
	base, err := parseLatencyClass(t.Latency)
	if err != nil {
		return nil, err
	}
	if len(t.Links) == 0 {
		return base, nil
	}
	m := simnet.Matrix{
		Base:    make(map[[2]id.NodeID]time.Duration, len(t.Links)),
		Default: base,
	}
	for _, l := range t.Links {
		m.Base[[2]id.NodeID{id.NodeID(l.From), id.NodeID(l.To)}] = l.OneWay.D()
	}
	return m, nil
}

func parseLatencyClass(class string) (simnet.LatencyModel, error) {
	switch {
	case class == "" || class == "lan":
		return simnet.Constant(2 * time.Millisecond), nil
	case class == "wan":
		return simnet.WAN{}, nil
	case strings.HasPrefix(class, "constant:"):
		d, err := time.ParseDuration(strings.TrimPrefix(class, "constant:"))
		if err != nil {
			return nil, fmt.Errorf("plans: latency %q: %w", class, err)
		}
		return simnet.Constant(d), nil
	case strings.HasPrefix(class, "uniform:"):
		lo, hi, ok := strings.Cut(strings.TrimPrefix(class, "uniform:"), "-")
		if !ok {
			return nil, fmt.Errorf("plans: latency %q: want uniform:<min>-<max>", class)
		}
		dlo, err := time.ParseDuration(lo)
		if err != nil {
			return nil, fmt.Errorf("plans: latency %q: %w", class, err)
		}
		dhi, err := time.ParseDuration(hi)
		if err != nil {
			return nil, fmt.Errorf("plans: latency %q: %w", class, err)
		}
		return simnet.Uniform{Min: dlo, Max: dhi}, nil
	}
	return nil, fmt.Errorf("plans: unknown latency class %q", class)
}

// Validate rejects plans no runner could execute.
func (p Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("plans: plan needs a name")
	}
	if p.Topology.Nodes < 1 {
		return fmt.Errorf("plans: %s: topology needs at least one node", p.Name)
	}
	if p.Workload.Duration <= 0 {
		return fmt.Errorf("plans: %s: workload needs a duration", p.Name)
	}
	if _, err := p.Topology.latencyModel(); err != nil {
		return err
	}
	churns := 0
	for i, f := range p.Faults {
		bad := func(msg string) error {
			return fmt.Errorf("plans: %s: fault %d (%s at %v): %s", p.Name, i, f.Kind, f.At.D(), msg)
		}
		inRange := func(n int) bool { return n >= 1 }
		switch f.Kind {
		case FaultPartition, FaultHeal:
			if len(f.A) == 0 || len(f.B) == 0 {
				return bad("needs both groups a and b")
			}
		case FaultCrash:
			if !inRange(f.Node) {
				return bad("needs a target node")
			}
		case FaultRestart, FaultJoin:
			if !inRange(f.Node) {
				return bad("needs a target node")
			}
			if !p.Topology.Swim {
				return bad("requires topology.swim (rejoin bootstraps via the seed)")
			}
		case FaultChurn:
			churns++
			if churns > 1 {
				return bad("at most one churn storm per plan")
			}
			if !inRange(f.Node) {
				return bad("needs a victim node")
			}
			if !p.Topology.Swim {
				return bad("requires topology.swim")
			}
		case FaultFlashCrowd:
			if f.Rate <= 0 || f.Dur <= 0 {
				return bad("needs rate and dur")
			}
		case FaultWalTorn:
			if !inRange(f.Node) {
				return bad("needs a target node")
			}
			if !p.Topology.Wal {
				return bad("requires topology.wal")
			}
		case FaultWalSlow:
			if !inRange(f.Node) {
				return bad("needs a target node")
			}
			if !p.Topology.Wal {
				return bad("requires topology.wal")
			}
		default:
			return bad("unknown fault kind")
		}
	}
	if p.Assert.VisibilityP99MaxMs > 0 && p.Topology.TraceSampleEvery <= 0 {
		return fmt.Errorf("plans: %s: visibility assertion requires topology.trace_sample_every", p.Name)
	}
	switch p.Assert.MaxFinalVerdict {
	case "", "healthy", "degraded", "critical":
	default:
		return fmt.Errorf("plans: %s: max_final_verdict must be healthy, degraded, or critical", p.Name)
	}
	return nil
}
