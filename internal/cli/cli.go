// Package cli is the run lifecycle shared by the checking commands agcheck
// and queueverify: one set of flags (listed by -h and in the README), one
// order of validation, and one exit contract, 0 = HOLDS, 1 = VIOLATED,
// 2 = UNKNOWN (budget exhausted, internal failure, vet-strict refusal,
// usage or start-up error, or an output that could not be written).
//
// A run goes parse → validate → resolve → cache → profiles →
// meter/recorder → vet → check → outputs. The command registers its own
// flags on Run.Flags, calls Parse, resolves what it checks, and hands Check
// its vet pre-check and its check body; Run does every other step. Every
// exit that has a verdict, UNKNOWN ones included, writes each requested
// -report, -trace and -metrics-out file, so automation reading them sees
// the reason instead of a missing file.
package cli

import (
	"flag"
	"fmt"
	"io"

	"opentla/internal/cache"
	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/ts"
	"opentla/internal/vet"
)

// Run is one invocation of a checking command.
type Run struct {
	// Tool names the command: its flag set, its stderr prefix and the
	// report's tool.
	Tool string
	// Flags holds the shared flags; the command adds its own before Parse.
	Flags  *flag.FlagSet
	stderr io.Writer
	// Conf is the report's config. The command sets Conf.Model, or binds a
	// flag to it, before Parse; Parse fills in the rest.
	Conf obs.Config

	// Set by Parse.
	Queue   queue.Config // the instance -n and -k select
	Workers int
	Reduce  reduce.Options
	VetMode vet.Mode

	// Cache is the graph cache, set by Check once it is open; nil without
	// -cache-dir.
	Cache ts.GraphCache

	workers             *int
	vetFlag, reduceFlag string
	budget              *engine.BudgetFlags
	obs                 *obs.Flags
	cache               cache.Flags
	rec                 *obs.Recorder
}

// Outcome is what a check body decided.
type Outcome struct {
	Verdict engine.Verdict
	// Unknown is the reason when Verdict is engine.Unknown.
	Unknown string
	// Hypotheses are listed in the report.
	Hypotheses []obs.Hypothesis
}

// New returns a run of the command tool with the shared flags registered.
// Usage and diagnostics go to stderr.
func New(tool string, stderr io.Writer) *Run {
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	r := &Run{Tool: tool, Flags: fs, stderr: stderr}
	fs.IntVar(&r.Queue.N, "n", 1, "queue capacity N (>= 1)")
	fs.IntVar(&r.Queue.N, "N", 1, "alias for -n")
	fs.IntVar(&r.Queue.Vals, "k", 2, "value-domain size K (>= 2)")
	fs.IntVar(&r.Queue.Vals, "K", 2, "alias for -k")
	fs.StringVar(&r.vetFlag, "vet", "warn", "static pre-check mode: strict | warn | off")
	fs.StringVar(&r.reduceFlag, "reduce", "off", "symmetry reduction for safety-only obligations: off|sym")
	r.budget = engine.AddBudgetFlags(fs)
	r.workers = engine.AddWorkersFlag(fs)
	r.obs = obs.AddFlags(fs)
	r.cache.AddFlags(fs)
	return r
}

// Parse parses args and validates the shared flags. It returns false when
// the run is over: the run then exits 2, and a validation failure has
// written the requested outputs.
func (r *Run) Parse(args []string) bool {
	if err := r.Flags.Parse(args); err != nil {
		return false
	}
	r.Workers = *r.workers
	r.Conf.N, r.Conf.K, r.Conf.Workers = r.Queue.N, r.Queue.Vals, r.Workers
	r.Conf.BudgetMS = int64(r.budget.TimeoutMS)
	r.Conf.MaxStates, r.Conf.MaxTransitions = r.budget.MaxStates, r.budget.MaxTransitions
	if err := r.validate(); err != nil {
		r.Fail("%v", err)
		return false
	}
	return true
}

func (r *Run) validate() error {
	if r.Flags.NArg() > 0 {
		return fmt.Errorf("unexpected positional arguments: %v", r.Flags.Args())
	}
	if err := r.obs.Validate(); err != nil {
		return err
	}
	if r.Queue.N < 1 {
		return fmt.Errorf("queue capacity N must be >= 1, got %d", r.Queue.N)
	}
	if r.Queue.Vals < 2 {
		return fmt.Errorf("value-domain size K must be >= 2, got %d", r.Queue.Vals)
	}
	if err := engine.ValidateWorkers(r.Workers); err != nil {
		return err
	}
	var err error
	if r.Reduce, err = reduce.ParseFlag(r.reduceFlag); err != nil {
		return err
	}
	if r.Reduce.Any() {
		r.Conf.Reduce = r.Reduce.String()
	}
	if err := r.cache.Validate(); err != nil {
		return err
	}
	r.VetMode, err = vet.ParseMode(r.vetFlag)
	return err
}

// Fail ends the run on a usage or start-up error: it prints the reason and
// writes the requested outputs as an UNKNOWN run carrying it. It returns
// the exit code, 2.
func (r *Run) Fail(format string, args ...any) int {
	msg := fmt.Sprintf(format, args...)
	r.printf("%s", msg)
	return r.finish(Outcome{Verdict: engine.Unknown, Unknown: msg}, nil)
}

// Check runs the lifecycle from the cache on and returns the exit code.
// It runs the vet pre-check analyze unless it is nil or -vet is off, and
// then body under the run's meter, with progress and the stall watchdog.
// Body prints its own verdict; an error from it is a failure that exits 2.
func (r *Run) Check(analyze func() (*vet.Result, error), body func(*engine.Meter) (Outcome, error)) int {
	cc, err := r.cache.Open()
	if err != nil {
		return r.Fail("opening cache: %v", err)
	}
	if cc != nil { // a nil *cache.Cache would make a non-nil ts.GraphCache
		r.Cache = cc
	}
	stopProfiles, err := r.obs.Start()
	if err != nil {
		return r.Fail("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			r.printf("%v", err)
		}
	}()

	m := r.budget.Meter()
	r.rec = r.obs.NewRecorder(m)
	if cc != nil {
		// Route the cache's self-healing diagnostics (sweeps, quarantines,
		// retries, gc) into the flight recorder; events from Open flush now.
		cc.SetNotify(m.Note)
	}

	// Warn-and-above findings go to stderr in every mode; strict mode
	// refuses an instance with errors, since its verdict would not mean
	// what the paper's theorem says it means, and one whose state-space
	// bound exceeds -max-states, which cannot finish.
	var vetSection *obs.VetReport
	if analyze != nil && r.VetMode != vet.ModeOff {
		end := obs.FromMeter(m).Span("vet")
		res, err := analyze()
		end()
		if err != nil {
			return r.Fail("%v", err)
		}
		overBudget := res.CheckBudget(int64(r.budget.MaxStates))
		vetSection = res.Section(r.VetMode)
		for _, d := range res.Filter(vet.Warn) {
			r.printf("vet: %s", d)
		}
		if r.VetMode == vet.ModeStrict && (res.HasErrors() || overBudget) {
			msg := fmt.Sprintf("vet found %d errors in strict mode; refusing to check an ill-formed instance", res.Errors())
			if !res.HasErrors() {
				msg = fmt.Sprintf("vet: state-space bound %s exceeds -max-states %d in strict mode; refusing a run that cannot finish", res.Bound, r.budget.MaxStates)
			}
			r.printf("%s", msg)
			return r.finish(Outcome{Verdict: engine.Unknown, Unknown: msg}, vetSection)
		}
	}

	stopProgress := r.rec.StartProgress(r.stderr, r.obs.ProgressPeriod())
	stopWatchdog := r.rec.StartWatchdog(r.obs.StallTimeout)
	out, err := body(m)
	stopWatchdog()
	stopProgress()
	if err != nil {
		r.printf("%v", err)
		out = Outcome{Verdict: engine.Unknown, Unknown: err.Error()}
	}
	return r.finish(out, vetSection)
}

// finish writes every requested output from the run's one record (nil
// before the meter exists) and returns out's exit code, or 2 when a write
// fails.
func (r *Run) finish(out Outcome, vetSection *obs.VetReport) int {
	doc := r.rec.Finish(r.Tool, r.Conf, out.Verdict, out.Unknown)
	doc.Vet = vetSection
	doc.Hypotheses = out.Hypotheses
	if err := r.obs.Write(r.rec, doc); err != nil {
		r.printf("%v", err)
		return 2
	}
	return out.Verdict.ExitCode()
}

// printf prints one diagnostic line to stderr under the command's prefix.
func (r *Run) printf(format string, args ...any) {
	fmt.Fprintf(r.stderr, "%s: %s\n", r.Tool, fmt.Sprintf(format, args...))
}
