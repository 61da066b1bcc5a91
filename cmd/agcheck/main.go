// Command agcheck runs the Composition Theorem of Abadi & Lamport, "Open
// Systems in TLA" (§5) on the built-in models and prints a per-hypothesis
// verdict.
//
// Usage:
//
//	agcheck -model circular
//	agcheck -model queues -n 1 -k 2
//	agcheck -model queues-no-g -n 1 -k 2   (expected to FAIL: §A.5 formula (3))
//	agcheck -model corollary -n 1 -k 2     (the refinement Corollary: a one-pair theorem)
//	agcheck -model arbiter                 (mutual-exclusion arbiter domain)
//
// It shares its flags, run lifecycle and exit codes with queueverify (see
// internal/cli): budgets, -workers, -reduce, progress, reports, traces,
// metrics, profiles, the graph cache and the -vet pre-check, which here
// analyzes the theorem instance. -mutate <name> plants a named ill-formed-spec
// mutation from the faultinject vet catalog first — a testing aid for the
// analyzer itself; a model without the pairs the mutation targets is
// refused (exit 2) before the run starts.
//
// Exit codes: 0 = all hypotheses hold, 1 = some hypothesis violated,
// 2 = undecided (budget exhausted, internal failure, vet-strict
// rejection, or usage error).
package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"opentla/internal/ag"
	"opentla/internal/arbiter"
	"opentla/internal/circular"
	"opentla/internal/cli"
	"opentla/internal/engine"
	"opentla/internal/faultinject"
	"opentla/internal/obs"
	"opentla/internal/reduce"
	"opentla/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// modelNames lists the valid -model values, in help order.
var modelNames = []string{"circular", "queues", "queues-no-g", "corollary", "arbiter"}

func run(args []string, stdout, stderr io.Writer) int {
	r := cli.New("agcheck", stderr)
	r.Flags.StringVar(&r.Conf.Model, "model", "circular", "model to check: circular | queues | queues-no-g | corollary | arbiter")
	mutate := r.Flags.String("mutate", "", "plant a named faultinject vet mutation before checking (analyzer testing aid)")
	if !r.Parse(args) {
		return 2
	}
	cfg := r.Queue

	// Resolve the model, and any -mutate, before spending anything on the
	// cache, meters or profiles, so a typo or a mutation the model cannot
	// take fails fast. resolve builds the run's one instance on its first
	// call, so the vet pre-check and the check itself use the same
	// instance — including any fault planted by -mutate — and the check
	// reuses the pre-check's analysis. The check attaches the cache, which
	// is open by then.
	var mu *faultinject.VetMutation
	var resolved *ag.Theorem
	theorem := func(mk func() *ag.Theorem, sym *reduce.Symmetry) func() (*ag.Theorem, error) {
		return func() (*ag.Theorem, error) {
			if resolved != nil {
				return resolved, nil
			}
			inst := mk()
			inst.Workers, inst.Resume = r.Workers, r.Resume
			inst.Reduce, inst.Symmetry = r.Reduce, sym
			if mu != nil {
				if err := mu.Apply(inst); err != nil {
					return nil, fmt.Errorf("mutation %s: %w", mu.Name, err)
				}
			}
			resolved = inst
			return inst, nil
		}
	}
	var resolve func() (*ag.Theorem, error)
	switch r.Conf.Model {
	case "circular":
		resolve = theorem(circular.SafetyTheorem, nil)
	case "queues":
		resolve = theorem(cfg.Fig9Theorem, cfg.DoubleSymmetry())
	case "queues-no-g":
		resolve = theorem(func() *ag.Theorem {
			th := cfg.Fig9Theorem()
			th.Name += " WITHOUT G (expected to fail, §A.5 formula (3))"
			th.Pairs = th.Pairs[1:]
			return th
		}, cfg.DoubleSymmetry())
	case "corollary":
		if r.Reduce.Any() {
			return r.Fail("-reduce is not supported for the corollary model: it declares no symmetry group")
		}
		resolve = theorem(cfg.CorollaryTheorem, nil)
	case "arbiter":
		resolve = theorem(arbiter.Theorem, nil)
	default:
		return r.Fail("unknown model %q; valid models: %s", r.Conf.Model, strings.Join(modelNames, " | "))
	}

	if *mutate != "" {
		var known []string
		for _, cand := range faultinject.VetCatalog(cfg) {
			cand := cand
			known = append(known, cand.Name)
			if cand.Name == *mutate {
				mu = &cand
			}
		}
		if mu == nil {
			return r.Fail("unknown vet mutation %q; valid: %s", *mutate, strings.Join(known, " | "))
		}
		// The catalog targets Fig. 9's pairs: resolving the instance now
		// plants the mutation, and refuses a model it does not fit.
		if _, err := resolve(); err != nil {
			return r.Fail("%v", err)
		}
	}

	analyze := func() (*vet.Result, error) {
		th, err := resolve()
		if err != nil {
			return nil, err
		}
		return th.Vet(), nil
	}
	return r.Check(analyze, func(m *engine.Meter) (cli.Outcome, error) {
		th, err := resolve()
		if err != nil {
			return cli.Outcome{}, err
		}
		th.Cache = r.Cache
		report, err := th.CheckWith(m)
		if err != nil {
			return cli.Outcome{}, err
		}
		fmt.Fprint(stdout, report)
		fmt.Fprintf(stdout, "run stats: %s\n", report.Stats)
		out := cli.Outcome{Verdict: report.Verdict, Unknown: report.Unknown}
		for _, h := range report.Hypotheses {
			out.Hypotheses = append(out.Hypotheses, obs.Hypothesis{Name: h.Name, Holds: h.Holds, Detail: h.Detail})
		}
		return out, nil
	})
}
