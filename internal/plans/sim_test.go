package plans

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// runPlanJSON runs the named catalog plan on simnet and returns the
// marshaled timeline (the exact bytes cmd/idea-plan writes).
func runPlanJSON(t *testing.T, name string, seed int64) (*Timeline, []byte) {
	t.Helper()
	tl, err := RunSim(MustGet(name), seed, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return tl, b
}

func requirePass(t *testing.T, name string, tl *Timeline) {
	t.Helper()
	if tl.Pass {
		return
	}
	for _, a := range tl.Assertions {
		if !a.OK {
			t.Errorf("%s: assertion %s failed: %s", name, a.Name, a.Detail)
		}
	}
	t.Fatalf("%s: plan failed", name)
}

// TestCatalogGreen runs every registered simnet plan and requires every
// assertion to hold — the catalog is part of the build.
func TestCatalogGreen(t *testing.T) {
	ps := All()
	if len(ps) < 4 {
		t.Fatalf("catalog has %d plans, want >= 4", len(ps))
	}
	for _, p := range ps {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			tl, _ := runPlanJSON(t, p.Name, 0)
			requirePass(t, p.Name, tl)
		})
	}
}

// TestTimelineDeterministic replays every catalog plan from its own seed
// twice: the emitted timeline JSON — schedule hash, fault and health
// events, workload report, vectors, assertion evidence — must be
// byte-identical. This is the harness's core promise: a failing nightly
// plan replays exactly from its seed.
func TestTimelineDeterministic(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			_, b1 := runPlanJSON(t, p.Name, 0)
			_, b2 := runPlanJSON(t, p.Name, 0)
			if !bytes.Equal(b1, b2) {
				i := 0
				for i < len(b1) && i < len(b2) && b1[i] == b2[i] {
					i++
				}
				lo := i - 150
				if lo < 0 {
					lo = 0
				}
				cut := func(b []byte) string {
					hi := i + 150
					if hi > len(b) {
						hi = len(b)
					}
					return string(b[lo:hi])
				}
				t.Fatalf("same seed produced different timelines; first divergence at byte %d:\n--- run1 ---\n%s\n--- run2 ---\n%s",
					i, cut(b1), cut(b2))
			}
		})
	}
}

// TestGoldenSchedules pins the cluster builder under RunSim to the
// hand-wired mkNode closure it replaced: the schedule hashes were recorded
// at the parent commit for every catalog plan at its own seed, with the
// topology forced to 1 and to 4 shards. churn-kill-rejoin's 1-shard hash
// was recorded again when digest origins began scoring the reports on
// their own digests from whole vectors, which drops three discrepancy
// alerts that run used to raise.
func TestGoldenSchedules(t *testing.T) {
	golden := map[string][2]string{
		"churn-kill-rejoin":    {"dddd1e48580c751e", "d7ae465d2f896f1a"},
		"flash-crowd-hotkey":   {"752743f64c65cedb", "475ecfbeb9814d2b"},
		"join-under-load":      {"00970359737fc790", "662b83fa819d1a83"},
		"partition-heal-stall": {"9c66ebe3863520a9", "249ef8ccfe538840"},
		"wal-torn-log":         {"260bffa85ae359af", "5b3bdadf904e8048"},
	}
	for _, p := range All() {
		p := p
		want, ok := golden[p.Name]
		if !ok {
			continue // a plan newer than the recording has no parent hash
		}
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for i, shards := range []int{1, 4} {
				p.Topology.Shards = shards
				tl, err := RunSim(p, 0, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if tl.ScheduleHash != want[i] {
					t.Errorf("%d shards: schedule hash %s, parent recorded %s", shards, tl.ScheduleHash, want[i])
				}
			}
		})
	}
}

// TestWalPlanFailsWithoutJournal: a plan that asks for a WAL gets one or
// the run fails up front — here the scratch directory sits under a
// regular file, so no journal can be created — instead of running
// memory-only.
func TestWalPlanFailsWithoutJournal(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	p := MustGet("wal-torn-log")
	if tl, err := RunSim(p, 0, filepath.Join(notADir, "scratch")); err == nil {
		t.Fatalf("emulated wal plan ran without a journal (pass=%v)", tl.Pass)
	}
	// The live rig takes its scratch from the OS temp directory.
	t.Setenv("TMPDIR", notADir)
	p.Tags = append([]string{"live"}, p.Tags...)
	if tl, err := RunLive(p, 0, 0, ""); err == nil {
		t.Fatalf("live wal plan ran without a journal (pass=%v)", tl.Pass)
	}
}

// TestSeedChangesSchedule pins the other half of the replay contract: a
// different seed must execute a different schedule.
func TestSeedChangesSchedule(t *testing.T) {
	tl1, _ := runPlanJSON(t, "partition-heal-stall", 0)
	tl2, _ := runPlanJSON(t, "partition-heal-stall", 99)
	if tl1.ScheduleHash == tl2.ScheduleHash {
		t.Fatalf("seeds %d and 99 produced the same schedule hash %s", tl1.Seed, tl1.ScheduleHash)
	}
}

// TestFailingAssertionFailsPlan runs a plan whose contract cannot hold
// and requires Pass=false with the failing assertion named — the path
// cmd/idea-plan turns into a nonzero exit.
func TestFailingAssertionFailsPlan(t *testing.T) {
	p := Plan{
		Name: "impossible",
		Topology: Topology{
			Nodes: 2,
		},
		Workload: Workload{
			Rate:     5,
			Duration: Duration(5 * time.Second),
		},
		Assert: Assertions{
			MinOps: 1 << 30,
			Expect: []ExpectAnomaly{{Detector: "wal_fsync_spike"}},
		},
	}
	tl, err := RunSim(p, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if tl.Pass {
		t.Fatal("impossible plan passed")
	}
	failed := map[string]bool{}
	for _, a := range tl.Assertions {
		if !a.OK {
			failed[a.Name] = true
		}
	}
	if !failed["min_ops"] || !failed["expect:wal_fsync_spike"] {
		t.Fatalf("expected min_ops and expect:wal_fsync_spike to fail, got %+v", tl.Assertions)
	}
}

// TestPlanJSONRoundTrip pins the schema: a catalog plan marshals to
// human-authorable JSON (durations as strings) and unmarshals back to
// an identical value.
func TestPlanJSONRoundTrip(t *testing.T) {
	for _, p := range All() {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte("000000")) {
			t.Fatalf("%s: durations leaked as nanosecond numbers: %s", p.Name, b)
		}
		var back Plan
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("%s: round trip drifted:\n  in:  %+v\n  out: %+v", p.Name, p, back)
		}
	}
}

// TestValidateRejects spot-checks the authoring guard rails.
func TestValidateRejects(t *testing.T) {
	base := MustGet("partition-heal-stall")
	for name, mutate := range map[string]func(*Plan){
		"no nodes":            func(p *Plan) { p.Topology.Nodes = 0 },
		"no duration":         func(p *Plan) { p.Workload.Duration = 0 },
		"bad latency":         func(p *Plan) { p.Topology.Latency = "warp" },
		"partition one-sided": func(p *Plan) { p.Faults = []Fault{{Kind: FaultPartition, A: []int{1}}} },
		"churn without swim":  func(p *Plan) { p.Faults = []Fault{{Kind: FaultChurn, Node: 1}} },
		"wal fault no wal":    func(p *Plan) { p.Faults = []Fault{{Kind: FaultWalTorn, Node: 1}} },
		"unknown fault":       func(p *Plan) { p.Faults = []Fault{{Kind: "meteor"}} },
		"visibility no trace": func(p *Plan) { p.Assert.VisibilityP99MaxMs = 5 },
		"bad verdict":         func(p *Plan) { p.Assert.MaxFinalVerdict = "fine" },
	} {
		p := base
		p.Faults = append([]Fault(nil), base.Faults...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid plan", name)
		}
	}
}

// TestMatchFilters pins the registry's list/filter semantics the CLI
// builds on.
func TestMatchFilters(t *testing.T) {
	smoke, err := Match("", "smoke")
	if err != nil {
		t.Fatal(err)
	}
	if len(smoke) == 0 {
		t.Fatal("no smoke-tagged plans")
	}
	for _, p := range smoke {
		if !p.HasTag("smoke") {
			t.Fatalf("%s leaked into smoke filter", p.Name)
		}
	}
	byName, err := Match("^churn-", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(byName) != 1 || byName[0].Name != "churn-kill-rejoin" {
		t.Fatalf("Match(^churn-) = %+v", byName)
	}
	if _, err := Match("(", ""); err == nil {
		t.Fatal("bad regexp accepted")
	}
	live, err := Match("", "live")
	if err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("no live-tagged plan; the soak rig has nothing to run")
	}
}

func TestScaleAssertions(t *testing.T) {
	p := MustGet("churn-kill-rejoin")
	window := p.Workload.Duration.D()

	// Shrunk window: absolute floors shrink proportionally, and the
	// round floor never scales to zero.
	s := scaleAssertions(p, window/3)
	if s.Assert.MinOps != p.Assert.MinOps/3 {
		t.Errorf("min_ops at 1/3 window: got %d, want %d", s.Assert.MinOps, p.Assert.MinOps/3)
	}
	if got := s.Assert.Envelope.MinRounds; got != 1 {
		t.Errorf("min_rounds at 1/3 window: got %d, want 1", got)
	}

	// Stretched window: floors grow so a longer run stays meaningful.
	s = scaleAssertions(p, 2*window)
	if s.Assert.MinOps != 2*p.Assert.MinOps {
		t.Errorf("min_ops at 2x window: got %d, want %d", s.Assert.MinOps, 2*p.Assert.MinOps)
	}
	if got, want := s.Assert.Envelope.MinRounds, 2*p.Assert.Envelope.MinRounds; got != want {
		t.Errorf("min_rounds at 2x window: got %d, want %d", got, want)
	}

	// Same window (and the zero sentinel): untouched, including the
	// shared Envelope pointer's value.
	if s := scaleAssertions(p, window); s.Assert.MinOps != p.Assert.MinOps {
		t.Errorf("same-window scaling changed min_ops")
	}
	if s := scaleAssertions(p, 0); s.Assert.MinOps != p.Assert.MinOps {
		t.Errorf("zero-duration scaling changed min_ops")
	}
	if p.Assert.Envelope.MinRounds != MustGet("churn-kill-rejoin").Assert.Envelope.MinRounds {
		t.Errorf("scaling mutated the registered plan's envelope")
	}
}
