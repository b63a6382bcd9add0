package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke test runs all four workloads, both kinds of run, at a twentieth
// of the benchmark's size, and asserts what the driver will assert: every
// metric name of BENCHMARK.json is emitted with a finite value, nothing
// failed, and the traced simnet pass reproduced the untraced schedule.
func TestSmokeAllWorkloads(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 || c.RunSeconds < 1 {
		t.Fatalf("contract is empty: %+v", c)
	}
	dir := t.TempDir()
	seconds := float64(c.RunSeconds) / 20
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runOne(sp, 7, seconds, trace, dir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.Name, trace, err)
			}
			if err := c.fill(res); err != nil {
				t.Errorf("%s trace=%v: %v", sp.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted < 1 || exitError(res) != nil {
				t.Errorf("%s trace=%v: %d of %d failed: %v", sp.Name, trace, res.Failed, res.Attempted, res.Failures)
			}
			if !trace {
				for _, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.Name, m.Name, m.Value)
					}
				}
			}
			if trace && sp.Sim && (res.SimReproduced == nil || !*res.SimReproduced) {
				t.Errorf("%s: the interposed pass did not reproduce the un-interposed Events()/Stats", sp.Name)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(dir, "trace-"+sp.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", sp.Name, err)
				}
			}
		}
	}
	// WAL temp dirs are removed on exit.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("left a temp dir behind: %s", e.Name())
		}
	}
}

// Run and compare share one schema: what a run wrote, compare reads back.
func TestCompareReadsWhatRunWrites(t *testing.T) {
	c, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) string {
		var f resultFile
		for i := 0; i < 5; i++ {
			jitter := 1 + float64(i-2)/1000
			f.Runs = append(f.Runs, runResult{Workload: "live1-burst", Metrics: []metric{
				{Name: "ops_per_s", Value: 1000 * jitter / scale},
				{Name: "verdict_ms_p50", Value: 2 * jitter * scale},
				{Name: "wire.encode_ns_op", Value: 500 * scale},
			}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow := mk(1), mk(1.02), mk(1.5)
	var out bytes.Buffer
	if err := compareFiles(&out, c, a, same); err != nil {
		t.Errorf("a 2%% shift is inside every bound: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, c, a, slow); err == nil || strings.Count(out.String(), "worse") != 2 {
		t.Errorf("a 50%% slowdown must mark both gated rows worse (and no per-layer row):\n%s", out.String())
	}
}
