// Command queueverify mechanically replays Appendix A of Abadi & Lamport,
// "Open Systems in TLA": it builds the complete single queue CQ,
// discharges every step of the Figure 9 proof that two open queues compose
// into a larger open queue, and reads the CDQ ⇒ CQ^dbl refinement of §A.4
// off that proof's hypothesis (2b), whose left-hand side is the CDQ system.
// It then confirms that §A.5's formula (3), the composition without G, is
// refuted, checking it only as far as its first failing hypothesis.
//
// Usage:
//
//	queueverify -n 1 -k 2
//
// Resource governance: -budget-ms, -max-states, and -max-transitions bound
// the whole run with one cumulative budget. On exhaustion the command
// reports an UNKNOWN verdict with partial statistics and exits 2 instead
// of hanging on an oversized instance.
//
// Observability: -progress prints a live status line to stderr every
// -progress-interval (default 1s), -report <file> writes a machine-readable
// JSON run report, -trace <file> captures a Chrome Trace Event timeline
// (one track per BFS worker; load in Perfetto, analyze with agprof),
// -metrics-out <file> exports performance counters as Prometheus text
// exposition, and -cpuprofile/-memprofile capture pprof profiles.
//
// Caching: -cache-dir <dir> keeps a persistent content-addressed graph
// cache across runs, -resume continues a budget-interrupted build from its
// checkpoint, and -no-cache forces a cold build.
//
// Static analysis: before any state is explored, -vet runs the specvet
// analyzer over the Figure 9 theorem and the complete single queue. The
// default warn mode prints findings to stderr and proceeds; strict mode
// refuses to run with vet errors (exit 2, UNKNOWN report with a vet
// section); off skips the pre-check.
//
// Exit codes: 0 = everything verified, 1 = a property violated,
// 2 = undecided (budget exhausted, internal failure, or usage error).
// Flag, startup, vet-strict, and report-write failures always exit 2,
// never 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"opentla/internal/absint"
	"opentla/internal/ag"
	"opentla/internal/cache"
	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("queueverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var n, k int
	fs.IntVar(&n, "n", 1, "queue capacity N (>= 1)")
	fs.IntVar(&n, "N", 1, "alias for -n")
	fs.IntVar(&k, "k", 2, "value-domain size K (>= 2)")
	fs.IntVar(&k, "K", 2, "alias for -k")
	vetFlag := fs.String("vet", "warn", "static pre-check mode: strict | warn | off")
	reduceFlag := fs.String("reduce", "off", "symmetry reduction for safety-only obligations: off|sym")
	bf := engine.AddBudgetFlags(fs)
	workers := engine.AddWorkersFlag(fs)
	of := obs.AddFlags(fs)
	var cf cache.Flags
	cf.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	conf := obs.Config{
		Model:          "appendix-a",
		N:              n,
		K:              k,
		Workers:        *workers,
		BudgetMS:       int64(bf.TimeoutMS),
		MaxStates:      bf.MaxStates,
		MaxTransitions: bf.MaxTransitions,
	}

	// The run's one record and its write path, as in agcheck: every exit
	// that has a verdict writes each requested output from it.
	var rec *obs.Recorder
	finish := func(code int, doc *obs.Report) int {
		if err := of.Write(rec, doc); err != nil {
			fmt.Fprintln(stderr, "queueverify:", err)
			return 2
		}
		return code
	}
	// fail mirrors agcheck: startup failures exit 2 as an UNKNOWN run with
	// the reason.
	fail := func(format string, fargs ...any) int {
		msg := fmt.Sprintf(format, fargs...)
		fmt.Fprintf(stderr, "queueverify: %s\n", msg)
		return finish(2, rec.Finish("queueverify", conf, engine.Unknown, msg))
	}

	if fs.NArg() > 0 {
		return fail("unexpected positional arguments: %v", fs.Args())
	}
	if err := of.Validate(); err != nil {
		return fail("%v", err)
	}
	if n < 1 {
		return fail("queue capacity N must be >= 1, got %d", n)
	}
	if k < 2 {
		return fail("value-domain size K must be >= 2, got %d", k)
	}
	if err := engine.ValidateWorkers(*workers); err != nil {
		return fail("%v", err)
	}
	reduceOpts, err := reduce.ParseFlag(*reduceFlag)
	if err != nil {
		return fail("%v", err)
	}
	if reduceOpts.Any() {
		conf.Reduce = reduceOpts.String()
	}
	if err := cf.Validate(); err != nil {
		return fail("%v", err)
	}
	cfg := queue.Config{N: n, Vals: k}
	mode, err := vet.ParseMode(*vetFlag)
	if err != nil {
		return fail("%v", err)
	}

	var gc ts.GraphCache
	var cc *cache.Cache
	if c, err := cf.Open(); err != nil {
		return fail("opening cache: %v", err)
	} else if c != nil {
		cc = c
		gc = c
	}

	stopProfiles, err := of.Start()
	if err != nil {
		return fail("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "queueverify:", err)
		}
	}()

	m := bf.Meter()
	rec = of.NewRecorder(m)
	if cc != nil {
		// Route the cache's self-healing diagnostics (sweeps, quarantines,
		// retries, gc) into the flight recorder; events from Open flush now.
		cc.SetNotify(m.Note)
	}

	// The vet pre-check covers everything the run will explore: the open
	// Figure 9 composition (with its Disjoint hypotheses) and the complete
	// single queue CQ used by the §A.4 refinement. Building the Figure 9
	// instance materializes sequence domains up to length 2N+1, so the
	// phase is skipped on instances too large to even enumerate — the
	// budgeted build rejects those with an UNKNOWN verdict anyway.
	var vetSection *obs.VetReport
	if mode != vet.ModeOff && !vetTractable(cfg, 1<<20) {
		fmt.Fprintln(stderr, "queueverify: vet: skipped (instance domains too large to materialize; shrink -n/-k to vet)")
	} else if mode != vet.ModeOff {
		endVet := obs.FromMeter(m).Span("vet")
		res := cfg.Fig9Theorem().Vet()
		res.Merge(vet.Composition("CQ", []*spec.Component{
			queue.QE("QE", queue.In, queue.Out, cfg.ValueDomain()),
			queue.QM("QM", cfg.N, queue.In, queue.Out, "q", cfg.ValueDomain()),
		}, nil, vet.Options{Domains: cfg.Domains()}))
		endVet()
		overBudget := res.CheckBudget(int64(bf.MaxStates))
		vetSection = res.Section(mode)
		for _, d := range res.Filter(vet.Warn) {
			fmt.Fprintf(stderr, "queueverify: vet: %s\n", d)
		}
		if mode == vet.ModeStrict && (res.HasErrors() || overBudget) {
			msg := fmt.Sprintf("vet found %d errors in strict mode; refusing to verify an ill-formed instance", res.Errors())
			if !res.HasErrors() {
				msg = fmt.Sprintf("vet: state-space bound %s exceeds -max-states %d in strict mode; refusing a run that cannot finish", res.Bound, bf.MaxStates)
			}
			fmt.Fprintf(stderr, "queueverify: %s\n", msg)
			doc := rec.Finish("queueverify", conf, engine.Unknown, msg)
			doc.Vet = vetSection
			return finish(2, doc)
		}
	}

	stopProgress := rec.StartProgress(stderr, of.ProgressPeriod())
	stopWatchdog := rec.StartWatchdog(of.StallTimeout)
	verdict, err := verify(stdout, cfg, m, *workers, gc, cf.Resume, reduceOpts)
	stopWatchdog()
	stopProgress()

	unknown := ""
	code := verdict.ExitCode()
	if err != nil {
		if reason, _, ok := engine.AsUnknown(err); ok {
			fmt.Fprintf(stdout, "UNKNOWN: %s\n  partial progress: %s\n", reason, m.Stats())
			verdict, unknown = engine.Unknown, reason
			code = engine.Unknown.ExitCode()
		} else {
			fmt.Fprintln(stderr, "queueverify:", err)
			verdict, unknown = engine.Unknown, err.Error()
			code = 2
		}
	} else {
		fmt.Fprintf(stdout, "run stats: %s\n", m.Stats())
	}
	doc := rec.Finish("queueverify", conf, verdict, unknown)
	doc.Vet = vetSection
	return finish(code, doc)
}

// vetTractable reports whether the vet pre-check can afford to
// materialize the Figure 9 domains. The semantic analyzer
// (internal/absint) bounds the per-variable domains of the conclusion
// queue — QM of capacity 2N+1, whose contents variable carries the
// instance's largest sequence domain. That domain is deliberately
// withheld from the analysis so the analyzer infers its cardinality from
// the Len guard instead of enumerating value.Seqs: the enumeration is
// exactly the cost being gated. Tractable means every inferred
// per-variable cardinality is finite and at most limit.
func vetTractable(cfg queue.Config, limit int) bool {
	vals := cfg.ValueDomain()
	comps := []*spec.Component{
		queue.QE("QE", queue.In, queue.Out, vals),
		queue.QM("QM", 2*cfg.N+1, queue.In, queue.Out, "q", vals),
	}
	domains := queue.In.Domains(vals)
	for k, v := range queue.Out.Domains(vals) {
		domains[k] = v
	}
	b := absint.Analyze(comps, nil, absint.Options{Declared: domains}).Bound()
	if !b.Finite {
		return false
	}
	for _, vb := range b.Vars {
		if !vb.Finite || vb.Card > uint64(limit) {
			return false
		}
	}
	return true
}

// verify runs every Appendix A obligation under the shared meter and
// returns the overall verdict. Budget and engine errors propagate to the
// caller, which classifies them as UNKNOWN. A non-nil gc serves complete
// graphs from the cache and persists new ones; resume continues
// interrupted builds from their checkpoints.
//
// §A.4's CDQ ⇒ CQ^dbl is not checked on its own: under the refinement
// mapping q̄ it is hypothesis (2b) of the Figure 9 theorem, whose
// left-hand side QE^dbl ∧ G ∧ QM¹ ∧ QM² is the CDQ system, so the theorem
// builds and checks CDQ once for both (see a4Line).
//
// Reduction (rd.Any()) applies to the safety-only obligations: the CQ
// build and, through ag.Theorem, the Figure 9 guarantees-only graph. The
// left-hand-side graph stays full — (2b)'s liveness half needs genuine
// fair cycles, which reduced graphs refuse to search for.
func verify(w io.Writer, cfg queue.Config, m *engine.Meter, workers int, gc ts.GraphCache, resume bool, rd reduce.Options) (engine.Verdict, error) {
	fmt.Fprintf(w, "== Appendix A with N=%d, K=%d: values 0..%d, double capacity %d ==\n\n",
		cfg.N, cfg.Vals, cfg.Vals-1, 2*cfg.N+1)

	// §A.2: the complete single queue CQ.
	start := time.Now()
	endCQ := obs.FromMeter(m).Span("phase:CQ")
	singleSys := cfg.SingleSystem()
	singleSys.Workers = workers
	singleSys.Cache, singleSys.Resume = gc, resume
	if rd.Any() {
		singleSys.Reduce = &reduce.Config{Options: rd, Symmetry: cfg.SingleSymmetry()}
	}
	gq, err := singleSys.BuildWith(m)
	endCQ()
	if err != nil {
		return engine.Unknown, fmt.Errorf("building CQ: %w", err)
	}
	reduced := ""
	if gq.Reduced() {
		reduced = fmt.Sprintf(" [reduced: %s]", rd)
	}
	fmt.Fprintf(w, "CQ (Fig. 6): %d states, %d edges%s (%v)\n",
		gq.NumStates(), gq.NumEdges(), reduced, time.Since(start).Round(time.Millisecond))

	// §A.5 / Fig. 9: the open-queue composition via the Composition
	// Theorem, and §A.4 read off its hypothesis (2b).
	start = time.Now()
	fig9 := cfg.Fig9Theorem()
	fig9.Workers = workers
	fig9.Cache, fig9.Resume = gc, resume
	fig9.Reduce = rd
	fig9.Symmetry = cfg.DoubleSymmetry()
	report, err := fig9.CheckWith(m)
	if err != nil {
		return engine.Unknown, err
	}
	line, a4 := a4Line(report)
	if line != "" {
		fmt.Fprintf(w, "%s\n\n", line)
	}
	if a4 == engine.Violated {
		return engine.Violated, nil
	}
	fmt.Fprint(w, report)
	fmt.Fprintf(w, "(%v)\n\n", time.Since(start).Round(time.Millisecond))
	if report.Verdict != engine.Holds {
		return report.Verdict, nil
	}

	// §A.5: without G the claim is invalid — confirm the checker agrees.
	// Only the verdict and the first failing hypothesis are printed, so the
	// check stops at the first phase that refutes the theorem.
	start = time.Now()
	noG := cfg.Fig9Theorem()
	noG.Name = "formula (3): composition WITHOUT G"
	noG.Pairs = noG.Pairs[1:]
	noG.Workers = workers
	noG.Cache, noG.Resume = gc, resume
	noG.Reduce = rd
	noG.Symmetry = cfg.DoubleSymmetry()
	reportNoG, err := noG.FirstFailure(m)
	if err != nil {
		return engine.Unknown, err
	}
	if reportNoG.Verdict == engine.Unknown {
		return engine.Unknown, fmt.Errorf("composition without G undecided: %s", reportNoG.Unknown)
	}
	if reportNoG.Valid {
		return engine.Violated, fmt.Errorf("composition without G unexpectedly validated")
	}
	fmt.Fprintf(w, "formula (3) without G: correctly NOT established (%v)\n",
		time.Since(start).Round(time.Millisecond))
	for _, h := range reportNoG.Hypotheses {
		if !h.Holds {
			fmt.Fprintf(w, "  first failing hypothesis: %s\n", h.Name)
			break
		}
	}
	return engine.Holds, nil
}

// a4Line renders §A.4's CDQ ⇒ CQ^dbl from r, the Figure 9 report: the
// refinement is that theorem's hypothesis (2b), so it holds iff every (2b)
// entry of r does. An undecided check gives no line and Unknown; a failed
// (2b) gives a FAILED line with each failing entry's detail, and Violated.
func a4Line(r *ag.Report) (string, engine.Verdict) {
	if r.Verdict == engine.Unknown {
		return "", engine.Unknown
	}
	var failed strings.Builder
	n := 0
	for _, h := range r.Hypotheses {
		if h.Name != ag.Hyp2bSafety && h.Name != ag.Hyp2bLiveness {
			continue
		}
		n++
		if !h.Holds {
			fmt.Fprintf(&failed, "\n  %s\n    %s", h.Name, strings.ReplaceAll(strings.TrimRight(h.Detail, "\n"), "\n", "\n    "))
		}
	}
	if n == 0 {
		failed.WriteString("\n  the report has no H2b entry")
	}
	if failed.Len() > 0 {
		return "CDQ => CQ^dbl (§A.4): FAILED" + failed.String(), engine.Violated
	}
	return "CDQ => CQ^dbl (§A.4): OK  [refinement mapping q = q2 o z-in-flight o q1]", engine.Holds
}
