// Command bench is the repository benchmark. It runs the agcheck and
// queueverify CLIs on four Composition Theorem workloads (see workloads),
// checks every verdict against a known answer in testdata/, and reports the
// end-to-end metrics a user of the checker sees: wall time, CPU time, peak
// RSS and set-up time per run, states explored, and the share of runs with a
// wrong answer. A separate traced pass then attributes the time to layers:
// the same CLI runs re-run with -report and -metrics-out, plus in-process
// timing of each layer's public functions. The harness records its own spans
// around those calls and writes them as a Chrome trace.
//
// Run it from the repository root through the launcher, which keeps the Go
// build cache inside .bench_build:
//
//	bash bench/run.sh -seed 1 -out .bench_build/seed1.json   # the full set
//	bash bench/run.sh --workload fig9 --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare bench/results/seed1.json bench/results/seed2.json
//
// or from bench/ with `go run . -seed 1`. The full set runs every workload,
// interleaved in an order drawn from -seed, then the traced pass. With
// -workload it measures one workload for at least -seconds and prints one
// JSON line last: the end-to-end metrics BENCHMARK.json declares, or with
// -trace 1 its per-layer metrics. Exit status: 0 when every answer was
// right, 1 on a wrong answer (or, with -compare, when the sets disagree),
// 2 when the benchmark could not run.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// config sizes a set. Only the tests change it from benchConfig.
type config struct {
	k, kSym    int // value-domain sizes of the instances (see workloads)
	reps       int // timed runs per workload, at least
	seconds    int // keep adding timed rounds until this much time has passed
	warmups    int // untimed runs per workload before any timed one
	coldSetups int // set-up runs of each cold workload
	warmFills  int // cache-filling set-up runs of the warm workload
	microReps  int // repetitions of each in-process micro-benchmark
}

var benchConfig = config{k: 3, kSym: 4, reps: 5, warmups: 1, coldSetups: 20, warmFills: 3, microReps: 5}

func (c config) setupReps(w *workload) int {
	if w.warm {
		return c.warmFills
	}
	return c.coldSetups
}

type harness struct {
	cfg       config
	bin       string // the built CLIs
	work      string // scratch directory of this invocation
	setupWant verdict
	spans     *tracer
	// attempted and failed count every checked run and check.
	attempted, failed int
}

// newHarness builds the CLIs from the repository's source and creates a
// scratch directory; close removes it.
func newHarness(root string, cfg config) (*harness, error) {
	out := filepath.Join(root, ".bench_build")
	h := &harness{cfg: cfg, bin: filepath.Join(out, "bin"), spans: newTracer()}
	var err error
	if h.setupWant, err = loadVerdict("setup"); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", h.bin+string(filepath.Separator), "./cmd/agcheck", "./cmd/queueverify")
	cmd.Dir, cmd.Stdout, cmd.Stderr = root, os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("building the CLIs: %w", err)
	}
	if h.work, err = os.MkdirTemp(out, "work-"); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.work) }

// results is one set's output, written by -out and read by -compare.
type results struct {
	Seed      int64                      `json:"seed"`
	Host      host                       `json:"host"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Workloads map[string]*workloadResult `json:"workloads"`
	PerLayer  map[string]metricValue     `json:"per_layer,omitempty"`
}

type workloadResult struct {
	Command  string          `json:"command"`
	EndToEnd map[string]stat `json:"end_to_end"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// set measures ws and, when traced, runs the traced pass over all four
// workloads afterwards, so tracing never overlaps a timed run.
func (h *harness) set(ws, all []*workload, seed int64, traced bool) (*results, error) {
	rng := rand.New(rand.NewSource(seed))
	steal := startSteal()
	outs, cal, err := h.measure(ws, rng)
	if err != nil {
		return nil, err
	}
	res := &results{Seed: seed, Workloads: map[string]*workloadResult{}}
	res.Host.Calibration = summarize("s", cal)
	res.Host.Scale = refCalibration / res.Host.Calibration.Median
	untraced := map[string]float64{}
	for _, w := range ws {
		st := outs[w.name].stats(res.Host.Scale)
		res.Workloads[w.name] = &workloadResult{Command: w.tool + " " + strings.Join(w.runArgs(), " "), EndToEnd: st}
		untraced[w.name] = st["wall_s"].Median
	}
	var pl map[string]float64
	if traced {
		if pl, err = h.tracedPass(all, untraced, rng); err != nil {
			return nil, err
		}
	}
	res.Host.NumCPU, res.Host.StealFrac = runtime.NumCPU(), steal.frac()
	if traced {
		pl["host.num_cpu"] = float64(res.Host.NumCPU)
		pl["host.steal_frac"] = res.Host.StealFrac
		pl["host.calibration_s"] = res.Host.Calibration.Median
		res.PerLayer = map[string]metricValue{}
		for _, m := range perLayer {
			v, ok := pl[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.PerLayer[m.name] = metricValue{v, m.unit}
		}
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	return res, nil
}

func (r *results) print(w io.Writer, ws []*workload) {
	for _, wl := range ws {
		wr := r.Workloads[wl.name]
		fmt.Fprintf(w, "workload %s: %s\n", wl.name, wr.Command)
		for _, m := range endToEnd {
			s := wr.EndToEnd[m.name]
			fmt.Fprintf(w, "  %-16s %-6s n=%-3d median %-12.6g q1 %-12.6g q3 %.6g\n", m.name, s.Unit, s.N, s.Median, s.Q1, s.Q3)
		}
	}
	if r.PerLayer != nil {
		fmt.Fprintln(w, "per-layer metrics (traced pass):")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-27s %-6s %.6g\n", m.name, m.unit, r.PerLayer[m.name].Value)
		}
		if r.Host.NumCPU < 2 {
			fmt.Fprintln(w, "  (one CPU: the ts.barrier_* and store.lock_* numbers are cpu-limited)")
		}
	}
	fmt.Fprintf(w, "host: %d CPUs, steal %.3f CPU-s per wall-second, calibration median %.1f ms (n=%d): end-to-end times are measured times x %.4f; %d runs and checks, %d wrong\n",
		r.Host.NumCPU, r.Host.StealFrac, 1000*r.Host.Calibration.Median, r.Host.Calibration.N, r.Host.Scale, r.Attempted, r.Failed)
	warnSteal(r.Host)
}

// declared is the part of BENCHMARK.json the harness reads: the metrics it
// must print and the bounds -compare applies.
type declared struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDeclared(root string) (*declared, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// resultLine is the last line -workload prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line picks the declared metrics of workload name out of a set's results.
func (r *results) line(d *declared, name string, traced bool) (*resultLine, error) {
	l := &resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	metrics := d.EndToEnd
	if traced {
		metrics = d.PerLayer
	}
	for _, m := range metrics {
		var v metricValue
		var ok bool
		if traced {
			v, ok = r.PerLayer[m.Name]
		} else {
			var s stat
			s, ok = r.Workloads[name].EndToEnd[m.Name]
			v = metricValue{s.Median, s.Unit}
		}
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %s, which the benchmark does not measure", m.Name)
		}
		l.Metrics[m.Name] = v
	}
	return l, nil
}

// findRoot returns the repository root: the nearest directory at or above
// the working directory whose go.mod declares module opentla.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(data, []byte("module opentla\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module opentla at or above the working directory")
		}
		dir = parent
	}
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "measure one workload (fig9 | appendix-a | fig9-sym | fig9-warm) and print a JSON result line; empty runs the full set")
	seed := fs.Int64("seed", 1, "seed of the interleaved run order and of the micro pass's state order and edge sample")
	seconds := fs.Int("seconds", 0, "add timed rounds until at least this many seconds of measurement have passed")
	trace := fs.Int("trace", 0, "with -workload: 1 runs the traced pass and prints the per-layer metrics instead")
	out := fs.String("out", "", "write the full set's results to this JSON file, and its trace next to it")
	cmp := fs.Bool("compare", false, "compare two results files given as arguments: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2, nil
	}
	root, err := findRoot()
	if err != nil {
		return 2, err
	}
	d, err := loadDeclared(root)
	if err != nil {
		return 2, err
	}
	if *cmp {
		if fs.NArg() != 2 {
			return 2, errors.New("-compare needs two results files")
		}
		return compare(d, fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		return 2, errors.New("usage: bench [-workload W -seconds S -trace 0|1] [-seed N] [-out F] | -compare A.json B.json")
	}

	cfg := benchConfig
	cfg.seconds = *seconds
	return measureAndReport(root, cfg, d, *name, *seed, *trace == 1, *out, stdout)
}

// measureAndReport runs a full set (name empty) or one workload, prints the
// results and, for one workload, the result line.
func measureAndReport(root string, cfg config, d *declared, name string, seed int64, traced bool, out string, stdout io.Writer) (int, error) {
	all, err := workloads(cfg.k, cfg.kSym, runtime.NumCPU())
	if err != nil {
		return 2, err
	}
	ws := all
	if name != "" {
		ws = nil
		for _, w := range all {
			if w.name == name {
				ws = []*workload{w}
			}
		}
		if ws == nil {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
	} else {
		traced = true
	}
	h, err := newHarness(root, cfg)
	if err != nil {
		return 2, err
	}
	defer h.close()
	res, err := h.set(ws, all, seed, traced)
	if err != nil {
		return 2, err
	}
	res.print(stdout, ws)

	tracePath := filepath.Join(root, ".bench_build", "trace.json")
	if name != "" {
		tracePath = filepath.Join(root, ".bench_build", "trace-"+name+".json")
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return 2, err
		}
		tracePath = strings.TrimSuffix(out, ".json") + ".trace.json"
	}
	if traced {
		if err := h.spans.writeChrome(tracePath); err != nil {
			return 2, err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote the traced pass's spans to %s\n", tracePath)
	}
	code := 0
	if res.Failed > 0 {
		code = 1
	}
	if name != "" {
		l, err := res.line(d, name, traced)
		if err != nil {
			return 2, err
		}
		data, err := json.Marshal(l)
		if err != nil {
			return 2, err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	return code, nil
}
