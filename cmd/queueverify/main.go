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
// It shares its flags, run lifecycle and exit codes with agcheck (see
// internal/cli): budgets, which bound the whole run with one cumulative
// budget, -workers, -reduce, progress, reports, traces, metrics, profiles,
// the graph cache and the -vet pre-check, which here analyzes the Figure 9
// theorem and the complete single queue.
//
// Exit codes: 0 = everything verified, 1 = a property violated,
// 2 = undecided (budget exhausted, internal failure, or usage error).
// Flag, startup, vet-strict, and report-write failures always exit 2,
// never 1.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"opentla/internal/absint"
	"opentla/internal/ag"
	"opentla/internal/cli"
	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/vet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	r := cli.New("queueverify", stderr)
	r.Conf.Model = "appendix-a"
	if !r.Parse(args) {
		return 2
	}
	cfg := r.Queue

	// The vet pre-check covers everything the run will explore: the open
	// Figure 9 composition (with its Disjoint hypotheses) and the complete
	// single queue CQ. Building the Figure 9 instance materializes sequence
	// domains up to length 2N+1, so the phase is skipped on instances too
	// large to even enumerate — the budgeted build rejects those with an
	// UNKNOWN verdict anyway. The check reuses the pre-check's Figure 9
	// instance, and with it the analysis.
	var th *ag.Theorem
	fig9 := func() *ag.Theorem {
		if th == nil {
			th = cfg.Fig9Theorem()
		}
		return th
	}
	analyze := func() (*vet.Result, error) {
		res := fig9().Vet()
		res.Merge(vet.Composition("CQ", []*spec.Component{
			queue.QE("QE", queue.In, queue.Out, cfg.ValueDomain()),
			queue.QM("QM", cfg.N, queue.In, queue.Out, "q", cfg.ValueDomain()),
		}, nil, vet.Options{Domains: cfg.Domains()}))
		return res, nil
	}
	if r.VetMode != vet.ModeOff && !vetTractable(cfg, 1<<20) {
		fmt.Fprintln(stderr, "queueverify: vet: skipped (instance domains too large to materialize; shrink -n/-k to vet)")
		analyze = nil
	}
	return r.Check(analyze, func(m *engine.Meter) (cli.Outcome, error) {
		verdict, err := verify(stdout, r, m, fig9)
		if reason, _, ok := engine.AsUnknown(err); ok {
			fmt.Fprintf(stdout, "UNKNOWN: %s\n  partial progress: %s\n", reason, m.Stats())
			return cli.Outcome{Verdict: engine.Unknown, Unknown: reason}, nil
		}
		if err != nil {
			return cli.Outcome{}, err
		}
		fmt.Fprintf(stdout, "run stats: %s\n", m.Stats())
		return cli.Outcome{Verdict: verdict}, nil
	})
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

// verify runs every Appendix A obligation under the shared meter with r's
// exploration settings (workers, graph cache, reduction) and
// returns the overall verdict. Budget and engine errors propagate to the
// caller, which classifies them as UNKNOWN.
//
// §A.4's CDQ ⇒ CQ^dbl is not checked on its own: under the refinement
// mapping q̄ it is hypothesis (2b) of the Figure 9 theorem, whose
// left-hand side QE^dbl ∧ G ∧ QM¹ ∧ QM² is the CDQ system, so the theorem
// builds and checks CDQ once for both (see a4Line).
//
// Reduction applies to the CQ build and, through ag.Theorem, to every
// Figure 9 graph: the left-hand side, whose (2b) liveness half is decided
// on the quotient (see check.FindFairLasso), the guarantees-only graph and
// its +v product.
//
// fig9 returns the Figure 9 instance of the vet pre-check, so its check does
// not analyze it again; the instance is built on first use, since building
// it materializes the instance's domains.
func verify(w io.Writer, r *cli.Run, m *engine.Meter, fig9 func() *ag.Theorem) (engine.Verdict, error) {
	cfg := r.Queue
	fmt.Fprintf(w, "== Appendix A with N=%d, K=%d: values 0..%d, double capacity %d ==\n\n",
		cfg.N, cfg.Vals, cfg.Vals-1, 2*cfg.N+1)

	// §A.2: the complete single queue CQ.
	start := time.Now()
	endCQ := obs.FromMeter(m).Span("phase:CQ")
	singleSys := cfg.SingleSystem()
	singleSys.Workers, singleSys.Cache = r.Workers, r.Cache
	if r.Reduce.Any() {
		singleSys.Reduce = &reduce.Config{Options: r.Reduce, Symmetry: cfg.SingleSymmetry()}
	}
	gq, err := singleSys.BuildWith(m)
	endCQ()
	if err != nil {
		return engine.Unknown, fmt.Errorf("building CQ: %w", err)
	}
	reduced := ""
	if gq.Reduced() {
		reduced = fmt.Sprintf(" [reduced: %s]", r.Reduce)
	}
	fmt.Fprintf(w, "CQ (Fig. 6): %d states, %d edges%s (%v)\n",
		gq.NumStates(), gq.NumEdges(), reduced, time.Since(start).Round(time.Millisecond))

	settings := func(th *ag.Theorem) *ag.Theorem {
		th.Workers, th.Cache = r.Workers, r.Cache
		th.Reduce, th.Symmetry = r.Reduce, cfg.DoubleSymmetry()
		return th
	}

	// §A.5 / Fig. 9: the open-queue composition via the Composition
	// Theorem, and §A.4 read off its hypothesis (2b).
	start = time.Now()
	report, err := settings(fig9()).CheckWith(m)
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
	noG := settings(cfg.Fig9Theorem())
	noG.Name = "formula (3): composition WITHOUT G"
	noG.Pairs = noG.Pairs[1:]
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
