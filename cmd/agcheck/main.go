// Command agcheck runs the Composition Theorem of Abadi & Lamport, "Open
// Systems in TLA" (§5) on the built-in models and prints a per-hypothesis
// verdict.
//
// Usage:
//
//	agcheck -model circular
//	agcheck -model queues -n 1 -k 2
//	agcheck -model queues-no-g -n 1 -k 2   (expected to FAIL: §A.5 formula (3))
//	agcheck -model corollary -n 1 -k 2     (the refinement Corollary)
//	agcheck -model arbiter                 (mutual-exclusion arbiter domain)
//
// Resource governance: -budget-ms, -max-states, and -max-transitions bound
// the check; an exhausted budget yields an UNKNOWN verdict with partial
// statistics rather than a hang.
//
// Observability: -progress prints a live status line to stderr every
// -progress-interval (default 1s), -report <file> writes a machine-readable
// JSON run report (span tree, per-phase stats, flight-recorder tail on
// UNKNOWN), -trace <file> captures a Chrome Trace Event timeline with one
// track per BFS worker (load it in Perfetto, analyze it with agprof),
// -metrics-out <file> exports the run's performance counters as Prometheus
// text exposition, and -cpuprofile/-memprofile capture pprof profiles.
//
// Caching: -cache-dir <dir> keeps a persistent content-addressed graph
// cache, so re-checking an unchanged model skips exploration entirely;
// -resume continues a budget-interrupted build from its checkpoint, and
// -no-cache forces a cold build against a populated cache.
//
// Static analysis: before any state is explored, -vet runs the specvet
// analyzer over the theorem instance. The default warn mode prints
// findings to stderr and proceeds; strict mode refuses to check an
// instance with vet errors (exit 2, UNKNOWN report with a vet section);
// off skips the pre-check. -mutate <name> plants a named ill-formed-spec
// mutation from the faultinject vet catalog first — a testing aid for the
// analyzer itself.
//
// Exit codes: 0 = all hypotheses hold, 1 = some hypothesis violated,
// 2 = undecided (budget exhausted, internal failure, vet-strict
// rejection, or usage error).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"opentla/internal/ag"
	"opentla/internal/arbiter"
	"opentla/internal/cache"
	"opentla/internal/circular"
	"opentla/internal/engine"
	"opentla/internal/faultinject"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/ts"
	"opentla/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// modelNames lists the valid -model values, in help order.
var modelNames = []string{"circular", "queues", "queues-no-g", "corollary", "arbiter"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "circular", "model to check: circular | queues | queues-no-g | corollary | arbiter")
	var n, k int
	fs.IntVar(&n, "n", 1, "queue capacity N (>= 1)")
	fs.IntVar(&n, "N", 1, "alias for -n")
	fs.IntVar(&k, "k", 2, "value-domain size K (>= 2)")
	fs.IntVar(&k, "K", 2, "alias for -k")
	vetFlag := fs.String("vet", "warn", "static pre-check mode: strict | warn | off")
	mutate := fs.String("mutate", "", "plant a named faultinject vet mutation before checking (analyzer testing aid)")
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
		Model:          *model,
		N:              n,
		K:              k,
		Workers:        *workers,
		BudgetMS:       int64(bf.TimeoutMS),
		MaxStates:      bf.MaxStates,
		MaxTransitions: bf.MaxTransitions,
	}

	// The run's one record (nil until the meter exists, or when no
	// observability flag asks for it). finish writes every requested output
	// from it — the report doc, -trace and -metrics-out — on every exit
	// that has a verdict, and returns code, or 2 when a write fails.
	var rec *obs.Recorder
	finish := func(code int, doc *obs.Report) int {
		if err := of.Write(rec, doc); err != nil {
			fmt.Fprintln(stderr, "agcheck:", err)
			return 2
		}
		return code
	}
	// fail reports a usage or startup error as an UNKNOWN run, so
	// automation reading the outputs sees the reason instead of a missing
	// file.
	fail := func(format string, fargs ...any) int {
		msg := fmt.Sprintf(format, fargs...)
		fmt.Fprintf(stderr, "agcheck: %s\n", msg)
		return finish(2, rec.Finish("agcheck", conf, engine.Unknown, msg))
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

	// Resolve the model before spending anything on meters or profiles, so
	// a typo fails fast with the valid list. Theorem models share one
	// constructor, so the vet pre-check and the check itself analyze the
	// same instance — including any fault planted by -mutate. gc is
	// assigned after the cache opens; the closures read it at call time.
	var gc ts.GraphCache
	var makeTheorem func() (*ag.Theorem, error)
	var makeRefinement func() *ag.Refinement
	var modelSym *reduce.Symmetry
	switch *model {
	case "circular":
		makeTheorem = func() (*ag.Theorem, error) { return circular.SafetyTheorem(), nil }
		modelSym = circular.Symmetry()
	case "queues":
		makeTheorem = func() (*ag.Theorem, error) { return cfg.Fig9Theorem(), nil }
		modelSym = cfg.DoubleSymmetry()
	case "queues-no-g":
		makeTheorem = func() (*ag.Theorem, error) {
			th := cfg.Fig9Theorem()
			th.Name += " WITHOUT G (expected to fail, §A.5 formula (3))"
			th.Pairs = th.Pairs[1:]
			return th, nil
		}
		modelSym = cfg.DoubleSymmetry()
	case "corollary":
		makeRefinement = cfg.CorollaryRefinement
	case "arbiter":
		makeTheorem = func() (*ag.Theorem, error) { return arbiter.Theorem(), nil }
		modelSym = arbiter.Symmetry()
	default:
		return fail("unknown model %q; valid models: %s", *model, strings.Join(modelNames, " | "))
	}
	if reduceOpts.Any() && makeRefinement != nil {
		return fail("-reduce is not supported for the corollary refinement model (its checks are liveness-bearing end to end)")
	}

	if *mutate != "" {
		if makeTheorem == nil {
			return fail("-mutate applies only to theorem models, not %q", *model)
		}
		var mu *faultinject.VetMutation
		var known []string
		for _, cand := range faultinject.VetCatalog(cfg) {
			cand := cand
			known = append(known, cand.Name)
			if cand.Name == *mutate {
				mu = &cand
			}
		}
		if mu == nil {
			return fail("unknown vet mutation %q; valid: %s", *mutate, strings.Join(known, " | "))
		}
		base := makeTheorem
		makeTheorem = func() (*ag.Theorem, error) {
			th, err := base()
			if err != nil {
				return nil, err
			}
			if err := mu.Apply(th); err != nil {
				return nil, fmt.Errorf("mutation %s: %w", mu.Name, err)
			}
			return th, nil
		}
	}

	checkModel := func(m *engine.Meter) (*ag.Report, error) {
		if makeRefinement != nil {
			rf := makeRefinement()
			rf.Workers = *workers
			rf.Cache, rf.Resume = gc, cf.Resume
			return rf.CheckWith(m)
		}
		th, err := makeTheorem()
		if err != nil {
			return nil, err
		}
		th.Workers = *workers
		th.Cache, th.Resume = gc, cf.Resume
		th.Reduce = reduceOpts
		th.Symmetry = modelSym
		return th.CheckWith(m)
	}

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
			fmt.Fprintln(stderr, "agcheck:", err)
		}
	}()

	m := bf.Meter()
	rec = of.NewRecorder(m)
	if cc != nil {
		// Route the cache's self-healing diagnostics (sweeps, quarantines,
		// retries, gc) into the flight recorder; events from Open flush now.
		cc.SetNotify(m.Note)
	}

	// The vet pre-check: analyze the instance before exploring any state.
	// Warn-and-above findings go to stderr in every mode; strict mode
	// refuses to check an instance with errors, since its verdict would
	// not mean what the Composition Theorem says it means.
	var vetSection *obs.VetReport
	if mode != vet.ModeOff {
		endVet := obs.FromMeter(m).Span("vet")
		var res *vet.Result
		if makeRefinement != nil {
			res = makeRefinement().Vet()
		} else {
			th, err := makeTheorem()
			if err != nil {
				endVet()
				return fail("%v", err)
			}
			res = th.Vet()
		}
		endVet()
		overBudget := res.CheckBudget(int64(bf.MaxStates))
		vetSection = res.Section(mode)
		for _, d := range res.Filter(vet.Warn) {
			fmt.Fprintf(stderr, "agcheck: vet: %s\n", d)
		}
		if mode == vet.ModeStrict && (res.HasErrors() || overBudget) {
			msg := fmt.Sprintf("vet found %d errors in strict mode; refusing to check an ill-formed instance", res.Errors())
			if !res.HasErrors() {
				msg = fmt.Sprintf("vet: state-space bound %s exceeds -max-states %d in strict mode; refusing a run that cannot finish", res.Bound, bf.MaxStates)
			}
			fmt.Fprintf(stderr, "agcheck: %s\n", msg)
			doc := rec.Finish("agcheck", conf, engine.Unknown, msg)
			doc.Vet = vetSection
			return finish(2, doc)
		}
	}

	stopProgress := rec.StartProgress(stderr, of.ProgressPeriod())
	stopWatchdog := rec.StartWatchdog(of.StallTimeout)
	report, err := checkModel(m)
	stopWatchdog()
	stopProgress()

	verdict := engine.Unknown
	unknown := ""
	if report != nil {
		verdict = report.Verdict
		unknown = report.Unknown
	} else if err != nil {
		unknown = err.Error()
	}
	doc := rec.Finish("agcheck", conf, verdict, unknown)
	doc.Vet = vetSection
	if report != nil {
		for _, h := range report.Hypotheses {
			doc.Hypotheses = append(doc.Hypotheses, obs.Hypothesis{Name: h.Name, Holds: h.Holds, Detail: h.Detail})
		}
	}
	if finish(0, doc) != 0 {
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "agcheck:", err)
		return 2
	}
	fmt.Fprint(stdout, report)
	fmt.Fprintf(stdout, "run stats: %s\n", report.Stats)
	return verdict.ExitCode()
}
