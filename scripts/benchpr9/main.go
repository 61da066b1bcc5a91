// Command benchpr9 measures checker throughput for the PR 9 partitioned
// parallel level barrier and emits BENCH_PR9.json, keeping the PR 2/3/4/7
// numbers inline so the performance trajectory stays comparable across PRs.
//
// Headline sections:
//
//   - parallel_scaling: the Fig. 9 theorem through agcheck at 1 worker and
//     at -workers N (default 4), after the PR 9 barrier rebuild. The
//     speedup is only physically observable with >= 4 CPUs; on smaller
//     machines the section records the measurement, sets cpu_limited AND
//     gate_degraded (loudly — the degradation used to be silent), and the
//     -scaling-check gate degrades to a no-regression bound. CI pins the
//     scaling job to a >= 4-CPU runner via -require-cpus, so a 1-CPU
//     machine can never greenlight scaling.
//   - barrier: the serial fraction of the level barrier, from the
//     performance-telemetry counters — single-threaded seal time vs wall.
//     This is the Amdahl term PR 9 shrank; the companion agprof
//     -max-commit-pct gate asserts the same bound from a trace capture.
//   - reduction: the same instance with -reduce=sym vs -reduce=off.
//     The gate is a state-count ratio (>= 3x at K=3) with identical
//     verdicts — enforced, not merely reported.
//
// The recorder_overhead and telemetry_overhead sections carry the PR 3 and
// PR 8 acceptance gates forward unchanged.
//
// Usage:
//
//	go run ./scripts/benchpr9 -n 1 -k 3 -workers 4 -out BENCH_PR9.json
//	go run ./scripts/benchpr9 -overhead-check   # CI: recorder cost <= threshold
//	go run ./scripts/benchpr9 -telemetry-check  # CI: trace+metrics cost <= threshold
//	go run ./scripts/benchpr9 -scaling-check -require-cpus 4  # CI: parallel speedup gate
//	go run ./scripts/benchpr9 -reduction-check  # CI: reduction ratio + verdict gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/queue"
)

// Measurement is one timed exploration run.
type Measurement struct {
	Workers      int     `json:"workers"`
	States       int     `json:"states"`
	Transitions  int     `json:"transitions"`
	PeakFrontier int     `json:"peak_frontier"`
	WallSeconds  float64 `json:"wall_seconds"`
	StatesPerSec float64 `json:"states_per_sec"`
}

// ParallelScaling is the first headline: the Fig. 9 theorem at one worker vs
// -workers N after the barrier rebuild.
type ParallelScaling struct {
	Seq     Measurement `json:"sequential"`
	Par     Measurement `json:"parallel"`
	Speedup float64     `json:"speedup"`
	// NumCPU is what the machine can actually run concurrently; with fewer
	// than Par.Workers CPUs the speedup is capacity-limited, not a property
	// of the frontier, and CPULimited is set.
	NumCPU     int  `json:"num_cpu"`
	CPULimited bool `json:"cpu_limited"`
	// GateDegraded records — loudly, in the committed artifact — that the
	// -scaling-check gate this measurement feeds was NOT the real speedup
	// target but the cpu-limited no-regression bound. A true value means
	// this JSON proves nothing about scaling.
	GateDegraded bool   `json:"gate_degraded"`
	Note         string `json:"note,omitempty"`
}

// BarrierProfile is the PR 9 headline metric: how much of a telemetry-on
// parallel build's wall is the single-threaded barrier seal. Captured from
// the performance-telemetry counters of an in-process Fig. 9-instance
// double-queue build.
type BarrierProfile struct {
	Workers               int     `json:"workers"`
	Levels                int64   `json:"levels"`
	WallSeconds           float64 `json:"wall_seconds"`
	SerialCommitSeconds   float64 `json:"serial_commit_seconds"`
	ParallelCommitSeconds float64 `json:"parallel_commit_seconds"`
	// SerialFraction is serial seal wall / total wall (the Amdahl term).
	SerialFraction float64 `json:"serial_fraction"`
}

// Reduction is the reduction headline: the same check with and without
// -reduce=sym.
type Reduction struct {
	Mode    string      `json:"mode"`
	Full    Measurement `json:"full"`
	Reduced Measurement `json:"reduced"`
	// StateRatio is full states / reduced states (higher is better).
	StateRatio      float64 `json:"state_ratio"`
	TransitionRatio float64 `json:"transition_ratio"`
	WallSpeedup     float64 `json:"wall_speedup"`
	VerdictFull     string  `json:"verdict_full"`
	VerdictReduced  string  `json:"verdict_reduced"`
	// Stats is the run report's reduction section (schema_version 5):
	// expansions, their successors and symmetry-collapsed successors.
	Stats *obs.ReductionReport `json:"stats,omitempty"`
}

// Overhead compares the graph build with and without an attached recorder.
type Overhead struct {
	Rounds              int     `json:"rounds"`
	DisabledBestSeconds float64 `json:"disabled_best_seconds"`
	EnabledBestSeconds  float64 `json:"enabled_best_seconds"`
	// OverheadPct is (enabled - disabled) / disabled * 100; negative values
	// are measurement noise.
	OverheadPct float64 `json:"overhead_pct"`
}

// Trajectory carries the prior PRs' numbers on the same instance, so
// BENCH_PR9.json is self-contained for trend analysis.
type Trajectory struct {
	PrePR2Fig9StatesPerSec float64 `json:"pre_pr2_fig9_seq_states_per_sec"`
	PR2Fig9SeqStatesPerSec float64 `json:"pr2_fig9_seq_states_per_sec"`
	PR3Fig9SeqStatesPerSec float64 `json:"pr3_fig9_seq_states_per_sec"`
	PR4Fig9SeqStatesPerSec float64 `json:"pr4_fig9_seq_states_per_sec"`
	PR4Fig9Speedup4W       float64 `json:"pr4_fig9_speedup_at_4_workers"`
	PR7Fig9SeqStatesPerSec float64 `json:"pr7_fig9_seq_states_per_sec"`
	PR7Fig9Speedup4W       float64 `json:"pr7_fig9_speedup_at_4_workers"`
	Note                   string  `json:"note"`
}

// Report is the emitted BENCH_PR9.json document.
type Report struct {
	Instance          string          `json:"instance"`
	GOMAXPROCS        int             `json:"gomaxprocs"`
	Scaling           ParallelScaling `json:"parallel_scaling"`
	Barrier           BarrierProfile  `json:"barrier"`
	Reduction         Reduction       `json:"reduction"`
	RecorderOverhead  Overhead        `json:"recorder_overhead"`
	TelemetryOverhead Overhead        `json:"telemetry_overhead"`
	Trajectory        Trajectory      `json:"trajectory"`

	GeneratedAtSeconds int64 `json:"generated_at_unix"`
}

// Prior PRs' numbers: pre-PR 2 string-keyed sequential BFS (commit 06838d0),
// BENCH_PR2.json (commit 114722f), BENCH_PR3.json (commit a52c53f),
// BENCH_PR4.json (commit 882380a), BENCH_PR7.json (commit 196eb52 — whose
// 4-worker "speedup" of 1.01x on a 1-CPU machine is the measurement the
// PR 9 partitioned barrier, and the gate_degraded field, exist to fix).
const (
	prePR2Baseline = 4093.0
	pr2Fig9Seq     = 8549.969311410969
	pr3Fig9Seq     = 9009.67991161761
	pr4Fig9Seq     = 9004.159458150369
	pr4Speedup4W   = 0.9718086437355906
	pr7Fig9Seq     = 13263.269331114385
	pr7Speedup4W   = 1.0127564967305855
	trajectoryNote = "pre-PR2: string-keyed sequential BFS. PR2: interned store + CSR + parallel frontier. " +
		"PR3: observability layer. PR4: persistent graph cache (4-worker theorem at 0.97x sequential). " +
		"PR7: reduction-aware pipeline (4-worker at 1.01x on a 1-CPU machine — cpu_limited). " +
		"PR9 parallelizes the level-barrier commit path: partitioned numbering, per-worker CSR commit, " +
		"committed-index dedup; the barrier section records the remaining serial fraction."
)

func main() {
	var n, k, workers, rounds, requireCPUs int
	var out, agcheckPath, reduceMode string
	var overheadCheck, telemetryCheck, scalingCheck, reductionCheck bool
	var threshold, scalingTarget, noRegressionFloor, reductionTarget float64
	flag.IntVar(&n, "n", 1, "queue capacity N")
	flag.IntVar(&k, "k", 3, "value-domain size K")
	flag.IntVar(&workers, "workers", 4, "worker count for the parallel runs")
	flag.IntVar(&rounds, "rounds", 5, "best-of rounds for the overhead comparison")
	flag.IntVar(&requireCPUs, "require-cpus", 0,
		"fail -scaling-check outright when the machine has fewer CPUs (0 = allow the degraded no-regression gate)")
	flag.StringVar(&out, "out", "BENCH_PR9.json", "output JSON path")
	flag.StringVar(&agcheckPath, "agcheck", "", "path to a built agcheck binary ('' = go build one)")
	flag.StringVar(&reduceMode, "reduce", "sym", "reduction mode for the reduction section")
	flag.BoolVar(&overheadCheck, "overhead-check", false,
		"only compare recorder-on vs recorder-off builds; exit 1 when over the threshold")
	flag.BoolVar(&telemetryCheck, "telemetry-check", false,
		"only compare recorder+trace+metrics builds vs recorder-only; exit 1 when over the threshold")
	flag.Float64Var(&threshold, "overhead-threshold", 3.0,
		"max tolerated overhead percent for -overhead-check and -telemetry-check")
	flag.BoolVar(&scalingCheck, "scaling-check", false,
		"only measure the Fig. 9 parallel speedup; exit 1 below the target (>= 4 CPUs) or the no-regression floor (< 4 CPUs)")
	flag.Float64Var(&scalingTarget, "scaling-target", 1.5,
		"required Fig. 9 speedup at -workers on a machine with enough CPUs")
	flag.Float64Var(&noRegressionFloor, "scaling-floor", 0.85,
		"required parallel/sequential ratio when the machine has fewer CPUs than workers (no-regression bound)")
	flag.BoolVar(&reductionCheck, "reduction-check", false,
		"only measure the -reduce state ratio; exit 1 below the target or on a verdict mismatch")
	flag.Float64Var(&reductionTarget, "reduction-target", 3.0,
		"required full/reduced state ratio for -reduction-check")
	flag.Parse()

	cfg := queue.Config{N: n, Vals: k}

	if overheadCheck {
		ov := measureOverhead(cfg, workers, rounds)
		fmt.Printf("recorder overhead on %s build (best of %d): disabled %.3fs, enabled %.3fs, overhead %.2f%% (threshold %.1f%%)\n",
			instance(n, k), rounds, ov.DisabledBestSeconds, ov.EnabledBestSeconds, ov.OverheadPct, threshold)
		if ov.OverheadPct > threshold {
			fmt.Fprintf(os.Stderr, "benchpr9: recorder overhead %.2f%% exceeds %.1f%%\n", ov.OverheadPct, threshold)
			os.Exit(1)
		}
		return
	}

	if telemetryCheck {
		ov := measureTelemetryOverhead(cfg, workers, rounds)
		fmt.Printf("telemetry overhead on %s build (best of %d): recorder-only %.3fs, +trace+metrics %.3fs, overhead %.2f%% (threshold %.1f%%)\n",
			instance(n, k), rounds, ov.DisabledBestSeconds, ov.EnabledBestSeconds, ov.OverheadPct, threshold)
		if ov.OverheadPct > threshold {
			fmt.Fprintf(os.Stderr, "benchpr9: telemetry overhead %.2f%% exceeds %.1f%%\n", ov.OverheadPct, threshold)
			os.Exit(1)
		}
		return
	}

	if agcheckPath == "" {
		dir, err := os.MkdirTemp("", "benchpr9-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		agcheckPath = filepath.Join(dir, "agcheck")
		build := exec.Command("go", "build", "-o", agcheckPath, "./cmd/agcheck")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fatal(fmt.Errorf("building agcheck: %w", err))
		}
	}

	if scalingCheck {
		if requireCPUs > 0 && runtime.NumCPU() < requireCPUs {
			// The loud path the ISSUE demands: a small runner must never
			// greenlight (or silently soft-pass) the scaling gate.
			fmt.Printf("::error::benchpr9: scaling gate needs >= %d CPUs, runner has %d — refusing to run the degraded gate\n",
				requireCPUs, runtime.NumCPU())
			os.Exit(1)
		}
		sc, err := measureScaling(agcheckPath, n, k, workers, scalingTarget, noRegressionFloor)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fig9 %s: sequential %.0f states/s, %d workers %.0f states/s, speedup %.2fx (%s)\n",
			instance(n, k), sc.Seq.StatesPerSec, workers, sc.Par.StatesPerSec, sc.Speedup, sc.Note)
		if sc.GateDegraded {
			// GitHub Actions warning annotation; a plain loud line elsewhere.
			fmt.Printf("::warning::benchpr9: scaling gate DEGRADED to a no-regression bound (%d CPUs for %d workers) — this run proves nothing about scaling\n",
				sc.NumCPU, workers)
		}
		if !scalingPass(sc, scalingTarget, noRegressionFloor) {
			fmt.Fprintf(os.Stderr, "benchpr9: scaling gate failed: %s\n", sc.Note)
			os.Exit(1)
		}
		return
	}

	if reductionCheck {
		rd, err := measureReduction(agcheckPath, n, k, workers, reduceMode)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fig9 %s -reduce=%s: %d -> %d states (%.2fx), verdicts %s/%s\n",
			instance(n, k), reduceMode, rd.Full.States, rd.Reduced.States, rd.StateRatio,
			rd.VerdictFull, rd.VerdictReduced)
		if rd.VerdictFull != rd.VerdictReduced {
			fmt.Fprintf(os.Stderr, "benchpr9: reduced verdict %s != full verdict %s\n", rd.VerdictReduced, rd.VerdictFull)
			os.Exit(1)
		}
		if rd.StateRatio < reductionTarget {
			fmt.Fprintf(os.Stderr, "benchpr9: reduction ratio %.2fx below target %.1fx\n", rd.StateRatio, reductionTarget)
			os.Exit(1)
		}
		return
	}

	rep := Report{
		Instance:   instance(n, k),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Trajectory: Trajectory{
			PrePR2Fig9StatesPerSec: prePR2Baseline,
			PR2Fig9SeqStatesPerSec: pr2Fig9Seq,
			PR3Fig9SeqStatesPerSec: pr3Fig9Seq,
			PR4Fig9SeqStatesPerSec: pr4Fig9Seq,
			PR4Fig9Speedup4W:       pr4Speedup4W,
			PR7Fig9SeqStatesPerSec: pr7Fig9Seq,
			PR7Fig9Speedup4W:       pr7Speedup4W,
			Note:                   trajectoryNote,
		},
		GeneratedAtSeconds: time.Now().Unix(),
	}

	var err error
	if rep.Scaling, err = measureScaling(agcheckPath, n, k, workers, scalingTarget, noRegressionFloor); err != nil {
		fatal(err)
	}
	rep.Barrier = measureBarrier(cfg, workers)
	if rep.Reduction, err = measureReduction(agcheckPath, n, k, workers, reduceMode); err != nil {
		fatal(err)
	}
	rep.RecorderOverhead = measureOverhead(cfg, workers, rounds)
	rep.TelemetryOverhead = measureTelemetryOverhead(cfg, workers, rounds)

	if rep.Scaling.GateDegraded {
		fmt.Printf("::warning::benchpr9: scaling measurement cpu-limited (%d CPUs for %d workers) — gate_degraded recorded in %s\n",
			rep.Scaling.NumCPU, workers, out)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%s\nwrote %s\n", data, out)
}

func instance(n, k int) string {
	return fmt.Sprintf("Fig9 open-queue theorem, N=%d K=%d", n, k)
}

// measureScaling runs the Fig. 9 check sequentially and at -workers, and
// annotates the comparison with the machine's actual CPU capacity.
func measureScaling(agcheck string, n, k, workers int, target, floor float64) (ParallelScaling, error) {
	seq, _, err := fig9FromReport(agcheck, n, k, 1, "")
	if err != nil {
		return ParallelScaling{}, err
	}
	par, _, err := fig9FromReport(agcheck, n, k, workers, "")
	if err != nil {
		return ParallelScaling{}, err
	}
	sc := ParallelScaling{Seq: seq, Par: par, NumCPU: runtime.NumCPU()}
	if seq.StatesPerSec > 0 {
		sc.Speedup = par.StatesPerSec / seq.StatesPerSec
	}
	sc.CPULimited = sc.NumCPU < workers
	sc.GateDegraded = sc.CPULimited
	if sc.CPULimited {
		sc.Note = fmt.Sprintf("machine has %d CPUs for %d workers: the %.1fx gate needs >= %d CPUs, so the gate DEGRADES to a no-regression bound (ratio >= %.2f); gate_degraded=true",
			sc.NumCPU, workers, target, workers, floor)
	} else {
		sc.Note = fmt.Sprintf("gate: speedup >= %.1fx at %d workers", target, workers)
	}
	return sc, nil
}

// scalingPass applies the environment-aware gate: the real speedup target
// with enough CPUs, a no-regression floor without them.
func scalingPass(sc ParallelScaling, target, floor float64) bool {
	if sc.CPULimited {
		return sc.Speedup >= floor
	}
	return sc.Speedup >= target
}

// measureBarrier builds the double-queue system in-process with the
// recorder's telemetry on and reads the barrier counters
// back: serial seal time, aggregate parallel commit time, levels, and the
// serial fraction of wall — the barrier-serial-fraction metric the PR 9
// acceptance tracks (agprof gates the same quantity from a trace capture).
func measureBarrier(cfg queue.Config, workers int) BarrierProfile {
	m := engine.NoLimit()
	rec := obs.New(m)
	rec.EnableTelemetry()
	sys := cfg.DoubleSystem(true)
	sys.Workers = workers
	start := time.Now()
	if _, err := sys.BuildWith(m); err != nil {
		fatal(err)
	}
	wall := time.Since(start).Seconds()
	rec.Finish("benchpr9", obs.Config{}, engine.Holds, "")

	bp := BarrierProfile{Workers: workers, WallSeconds: wall}
	for _, pt := range rec.Points() {
		switch pt.Name {
		case "opentla_barrier_commit_nanoseconds_total":
			bp.SerialCommitSeconds = float64(pt.Value) / 1e9
		case "opentla_barrier_parallel_commit_nanoseconds_total":
			bp.ParallelCommitSeconds = float64(pt.Value) / 1e9
		case "opentla_levels_total":
			bp.Levels = pt.Value
		}
	}
	if wall > 0 {
		bp.SerialFraction = bp.SerialCommitSeconds / wall
	}
	return bp
}

// measureReduction runs the Fig. 9 check full and with -reduce, and
// compares state counts and verdicts.
func measureReduction(agcheck string, n, k, workers int, mode string) (Reduction, error) {
	full, fullRep, err := fig9FromReport(agcheck, n, k, workers, "")
	if err != nil {
		return Reduction{}, fmt.Errorf("full run: %w", err)
	}
	red, redRep, err := fig9FromReport(agcheck, n, k, workers, mode)
	if err != nil {
		return Reduction{}, fmt.Errorf("reduced run: %w", err)
	}
	out := Reduction{
		Mode:           mode,
		Full:           full,
		Reduced:        red,
		VerdictFull:    fullRep.Verdict,
		VerdictReduced: redRep.Verdict,
		Stats:          redRep.Reduction,
	}
	if red.States > 0 {
		out.StateRatio = float64(full.States) / float64(red.States)
	}
	if red.Transitions > 0 {
		out.TransitionRatio = float64(full.Transitions) / float64(red.Transitions)
	}
	if red.WallSeconds > 0 {
		out.WallSpeedup = full.WallSeconds / red.WallSeconds
	}
	return out, nil
}

// fig9FromReport runs the built agcheck on the Fig. 9 instance with -report
// and extracts the measurement from the run report — the same artifact CI
// validates. A non-empty reduceMode adds -reduce.
func fig9FromReport(agcheck string, n, k, workers int, reduceMode string) (Measurement, *obs.Report, error) {
	dir, err := os.MkdirTemp("", "benchpr9-report-")
	if err != nil {
		return Measurement{}, nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "report.json")
	args := []string{
		"-model", "queues",
		"-n", fmt.Sprint(n), "-k", fmt.Sprint(k),
		"-workers", fmt.Sprint(workers),
		"-report", path,
	}
	if reduceMode != "" {
		args = append(args, "-reduce", reduceMode)
	}
	cmd := exec.Command(agcheck, args...)
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return Measurement{}, nil, fmt.Errorf("agcheck fig9 workers=%d reduce=%q: %w", workers, reduceMode, err)
	}
	wallWhole := time.Since(start).Seconds()
	data, err := os.ReadFile(path)
	if err != nil {
		return Measurement{}, nil, err
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Measurement{}, nil, fmt.Errorf("parsing run report: %w", err)
	}
	if rep.SchemaVersion != obs.SchemaVersion || rep.Verdict != "HOLDS" {
		return Measurement{}, nil, fmt.Errorf("unexpected run report: schema %d, verdict %s", rep.SchemaVersion, rep.Verdict)
	}
	wall := rep.Stats.ElapsedMS / 1000
	if wall == 0 {
		wall = wallWhole
	}
	m := Measurement{
		Workers:      workers,
		States:       rep.Stats.States,
		Transitions:  rep.Stats.Transitions,
		PeakFrontier: rep.Stats.PeakFrontier,
		WallSeconds:  wall,
	}
	if wall > 0 {
		m.StatesPerSec = float64(m.States) / wall
	}
	return m, &rep, nil
}

// measureOverhead times the double-queue build best-of-rounds with a
// recorder attached and without, interleaved so machine drift hits both
// sides equally.
func measureOverhead(cfg queue.Config, workers, rounds int) Overhead {
	build := func(withRecorder bool) float64 {
		m := engine.NoLimit()
		var rec *obs.Recorder
		if withRecorder {
			rec = obs.New(m)
		}
		sys := cfg.DoubleSystem(true)
		sys.Workers = workers
		start := time.Now()
		if _, err := sys.BuildWith(m); err != nil {
			fatal(err)
		}
		wall := time.Since(start).Seconds()
		if rec != nil {
			rec.Finish("benchpr9", obs.Config{}, engine.Holds, "")
		}
		return wall
	}
	best := func(cur, next float64) float64 {
		if cur == 0 || next < cur {
			return next
		}
		return cur
	}
	ov := Overhead{Rounds: rounds}
	build(false) // warm up once before timing anything
	for i := 0; i < rounds; i++ {
		ov.DisabledBestSeconds = best(ov.DisabledBestSeconds, build(false))
		ov.EnabledBestSeconds = best(ov.EnabledBestSeconds, build(true))
	}
	if ov.DisabledBestSeconds > 0 {
		ov.OverheadPct = (ov.EnabledBestSeconds - ov.DisabledBestSeconds) / ov.DisabledBestSeconds * 100
	}
	return ov
}

// measureTelemetryOverhead times the double-queue build with a bare recorder
// vs one with telemetry on (the -trace and -metrics-out configuration),
// interleaved best-of-rounds like measureOverhead. This carries the
// telemetry gate: full per-worker timeline capture, parallel commit-phase
// slices included, must stay within the same few-percent envelope as the
// recorder itself.
func measureTelemetryOverhead(cfg queue.Config, workers, rounds int) Overhead {
	build := func(withTelemetry bool) float64 {
		m := engine.NoLimit()
		rec := obs.New(m)
		if withTelemetry {
			rec.EnableTelemetry()
		}
		sys := cfg.DoubleSystem(true)
		sys.Workers = workers
		start := time.Now()
		if _, err := sys.BuildWith(m); err != nil {
			fatal(err)
		}
		wall := time.Since(start).Seconds()
		rec.Finish("benchpr9", obs.Config{}, engine.Holds, "")
		return wall
	}
	best := func(cur, next float64) float64 {
		if cur == 0 || next < cur {
			return next
		}
		return cur
	}
	ov := Overhead{Rounds: rounds}
	build(false) // warm up once before timing anything
	for i := 0; i < rounds; i++ {
		ov.DisabledBestSeconds = best(ov.DisabledBestSeconds, build(false))
		ov.EnabledBestSeconds = best(ov.EnabledBestSeconds, build(true))
	}
	if ov.DisabledBestSeconds > 0 {
		ov.OverheadPct = (ov.EnabledBestSeconds - ov.DisabledBestSeconds) / ov.DisabledBestSeconds * 100
	}
	return ov
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpr9:", err)
	os.Exit(2)
}
