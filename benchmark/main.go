// Command benchmark is the repository's one benchmark: four named workloads
// on the two runtimes the repo has (simnet virtual time; transport loopback
// TCP + store.WAL), end-to-end metrics from an untraced pass, per-layer
// metrics from a traced pass that measures the layers from outside, and a
// correctness gate in the same command. See README.md next to this file.
//
//	go run ./benchmark --workload live3-conflict --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -seed 1                 # every workload, both passes
//	go run ./benchmark -seed 1 -runs 10 -o a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	runs     int
	out      string
	compare  bool
	specPath string
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the result line (empty: run them all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "scored window per pass (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.IntVar(&o.runs, "runs", 1, "all-workloads mode: runs per workload, at seeds seed, seed+1, …")
	flag.StringVar(&o.out, "o", "", "all-workloads mode: write every run's metrics to this file (default <outdir>/result-<sha>-<seed>.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.StringVar(&o.specPath, "spec", "BENCHMARK.json", "the benchmark contract")
	flag.StringVar(&o.outDir, "outdir", filepath.Join("benchmark", "out"), "scratch and output directory (WAL temp dirs, traces, results)")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed is returned when a run completed but its correctness gate or
// failure accounting did not come out clean.
var errFailed = errors.New("failed operations or correctness checks (listed above)")

// exitError maps a completed run to the command's exit status.
func exitError(r *runResult) error {
	if r.Failed > 0 {
		return errFailed
	}
	return nil
}

func run(o options, args []string) error {
	contract, err := loadContract(o.specPath)
	if err != nil {
		return err
	}
	seed, seconds, outDir := o.seed, o.seconds, o.outDir
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, contract, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(contract.RunSeconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if o.workload != "" {
		sp, ok := findSpec(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runOne(sp, seed, seconds, o.trace != 0, outDir)
		if err != nil {
			return err
		}
		if err := contract.fill(res); err != nil {
			return err
		}
		printTable(os.Stderr, res)
		line, err := json.Marshal(res.line())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return exitError(res)
	}

	// Every workload, both passes, runs times.
	file := resultFile{Env: environment(seed, seconds, outDir)}
	failed := false
	for r := 0; r < o.runs; r++ {
		for _, sp := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runOne(sp, seed+int64(r), seconds, traced, outDir)
				if err != nil {
					return err
				}
				if err := contract.fill(res); err != nil {
					return err
				}
				printTable(os.Stdout, res)
				file.Runs = append(file.Runs, *res)
				failed = failed || exitError(res) != nil
			}
		}
	}
	out := o.out
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("result-%s-%d.json", file.Env.GitSHA, seed))
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", out)
	if failed {
		return errFailed
	}
	return nil
}

// runResult is one invocation's outcome: one workload, one seed, one of
// the two kinds of run.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
	// SimReproduced is set on traced simnet runs: whether the interposed
	// pass dispatched exactly the events and sent exactly the messages and
	// bytes of the un-interposed pass of the same size.
	SimReproduced *bool `json:"sim_reproduced,omitempty"`
	TmpfsWAL      bool  `json:"wal_dir_on_tmpfs"`
}

// resultFile is the schema shared by the run and compare paths.
type resultFile struct {
	Env  envInfo     `json:"env"`
	Runs []runResult `json:"runs"`
}

type envInfo struct {
	NProc      int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	GitSHA     string          `json:"git_sha"`
	Seed       int64           `json:"seed"`
	Seconds    float64         `json:"seconds"`
	TmpfsWAL   bool            `json:"wal_dir_on_tmpfs"`
	Sizes      map[string]spec `json:"sizes"`
	Started    string          `json:"started"`
}

func environment(seed int64, seconds float64, outDir string) envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitSHA: "nogit", Seed: seed, Seconds: seconds, TmpfsWAL: onTmpfs(outDir),
		Sizes: make(map[string]spec), Started: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				e.GitSHA = s.Value[:12]
			}
		}
	}
	for _, sp := range workloads {
		e.Sizes[sp.Name] = sp
	}
	return e
}

// resultLine is the last line of standard output in one-workload mode.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) line() resultLine {
	l := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]lineValue)}
	for _, m := range r.Metrics {
		l.Metrics[m.Name] = lineValue{m.Value, m.Unit}
	}
	return l
}

// runOne makes one run of one workload: the untraced pass (trace false), or
// the traced run (trace true) — an untraced reference pass, the interposed
// pass at the same size, then the layer probes, each given a third of the
// seconds.
func runOne(sp spec, seed int64, seconds float64, trace bool, outDir string) (*runResult, error) {
	res := &runResult{Workload: sp.Name, Seed: seed, Seconds: seconds, Trace: trace}
	// In all-workloads mode runs share the process: start each from a
	// collected heap, as a run of its own would.
	debug.FreeOSMemory()
	if !trace {
		m, err := pass(sp, seed, seconds, outDir, false, sp.Setups, nil)
		if err != nil {
			return nil, err
		}
		res.Metrics = endToEnd(m)
		res.absorb(m)
		return res, nil
	}
	third := seconds / 3
	ref, err := pass(sp, seed, third, outDir, false, 1, nil)
	if err != nil {
		return nil, err
	}
	var pr probes
	tr, err := pass(sp, seed, third, outDir, true, 1, func(m *measured) error {
		var err error
		pr, err = runProbes(m, time.Duration(third*float64(time.Second))/probeCount, outDir)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Metrics = perLayer(ref, tr, pr)
	res.absorb(ref)
	res.absorb(tr)
	if sp.Sim {
		same := ref.simEvents == tr.simEvents && ref.simMsgs == tr.simMsgs && ref.simBytes == tr.simBytes
		res.SimReproduced = &same
		res.Attempted++
		if !same {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf("interposer_perturbed_schedule events %d vs %d, msgs %d vs %d, bytes %d vs %d",
				ref.simEvents, tr.simEvents, ref.simMsgs, tr.simMsgs, ref.simBytes, tr.simBytes))
		}
	}
	if err := tr.tracer.writeSpans(filepath.Join(outDir, "trace-"+sp.Name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *runResult) absorb(m *measured) {
	r.Attempted += m.attempted
	r.Failed += m.failed
	r.Failures = append(r.Failures, m.failures...)
	r.TmpfsWAL = r.TmpfsWAL || m.tmpfs
}

// pass runs one pass and, while the cluster's end state is still alive,
// hands the measurement to after (the probes).
func pass(sp spec, seed int64, seconds float64, outDir string, traced bool, setups int, after func(*measured) error) (*measured, error) {
	if sp.Sim {
		m, c := measureSim(sp, seed, seconds, traced, setups)
		var err error
		if after != nil {
			err = after(m)
		}
		runtime.KeepAlive(c)
		return m, err
	}
	m, c, err := measureLive(sp, seed, seconds, outDir, traced, setups)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if after != nil {
		err = after(m)
	}
	return m, err
}

// ---- the contract (BENCHMARK.json) ----

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contract struct {
	RunSeconds int              `json:"run_seconds"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("the benchmark contract: %w (run from the repository root or pass -spec)", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func (c *contract) list(trace bool) []contractMetric {
	if trace {
		return c.PerLayer
	}
	return c.EndToEnd
}

func (c *contract) lookup(name string) (contractMetric, bool) {
	for _, l := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
		for _, m := range l {
			if m.Name == name {
				return m, true
			}
		}
	}
	return contractMetric{}, false
}

// fill joins units onto a result's metrics and checks that the run emitted
// exactly the contract's list for its kind, each with a finite value.
func (c *contract) fill(r *runResult) error {
	want := c.list(r.Trace)
	have := make(map[string]bool)
	for i := range r.Metrics {
		m := &r.Metrics[i]
		cm, ok := c.lookup(m.Name)
		if !ok {
			return fmt.Errorf("metric %s is emitted but not in the contract", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s on %s is not finite", m.Name, r.Workload)
		}
		m.Unit = cm.Unit
		have[m.Name] = true
	}
	for _, cm := range want {
		if !have[cm.Name] {
			return fmt.Errorf("metric %s is in the contract but was not emitted on %s", cm.Name, r.Workload)
		}
	}
	if len(have) != len(want) {
		return fmt.Errorf("%s emitted %d metrics, the contract lists %d for this kind of run", r.Workload, len(have), len(want))
	}
	return nil
}
