// Benchmark harness: one benchmark per experiment of DESIGN.md §4,
// regenerating every figure and result of Abadi & Lamport, "Open Systems in
// TLA". Each benchmark reports model-checking throughput for its
// experiment; correctness of the regenerated result is asserted inside the
// loop (a benchmark that silently checked the wrong thing would be
// worthless).
package opentla_test

import (
	"fmt"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/arbiter"
	"opentla/internal/check"
	"opentla/internal/circular"
	"opentla/internal/form"
	"opentla/internal/handshake"
	"opentla/internal/queue"
	"opentla/internal/serial"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// BenchmarkE1_CircularSafety regenerates §1 example 1 / §5's trivial
// example: the Composition Theorem validates the circular safety
// composition.
func BenchmarkE1_CircularSafety(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := circular.SafetyTheorem().Check()
		if err != nil || !report.Valid {
			b.Fatalf("valid=%v err=%v", report != nil && report.Valid, err)
		}
	}
}

// BenchmarkE2_CircularLiveness regenerates §1 example 2: the liveness
// composition fails, with a fair stuttering counterexample found by the
// model checker.
func BenchmarkE2_CircularLiveness(b *testing.B) {
	sys := &ts.System{
		Name: "copy-processes",
		Components: []*spec.Component{
			circular.CopyProcess("Pc", "c", "d"),
			circular.CopyProcess("Pd", "d", "c"),
		},
		Domains: circular.Domains(),
	}
	for i := 0; i < b.N; i++ {
		g, err := sys.Build()
		if err != nil {
			b.Fatal(err)
		}
		res, err := check.Liveness(g, circular.EventuallyOne("c"), nil)
		if err != nil || res.Holds || res.Counterexample == nil {
			b.Fatalf("holds=%v err=%v", res != nil && res.Holds, err)
		}
	}
}

// BenchmarkE3_HandshakeTrace regenerates Figure 2: the two-phase handshake
// protocol trace.
func BenchmarkE3_HandshakeTrace(b *testing.B) {
	c := handshake.Chan("c")
	vals := []value.Value{value.Int(37), value.Int(4), value.Int(19)}
	for i := 0; i < b.N; i++ {
		tr, err := c.Trace(value.Int(0), vals)
		if err != nil || len(tr) != 7 {
			b.Fatalf("len=%d err=%v", len(tr), err)
		}
	}
}

// BenchmarkE4_MachineClosure regenerates the Proposition 1 hypothesis check
// (machine closure) for the queue guarantee.
func BenchmarkE4_MachineClosure(b *testing.B) {
	cfg := queue.Config{N: 1, Vals: 2}
	qm := queue.QM("QM", cfg.N, queue.In, queue.Out, "q", cfg.ValueDomain())
	for i := 0; i < b.N; i++ {
		res, err := ag.MachineClosure(qm, cfg.Domains())
		if err != nil || !res.Closed {
			b.Fatalf("closed=%v err=%v", res != nil && res.Closed, err)
		}
	}
}

// BenchmarkE6_PlusElimination compares the two routes for hypothesis 2a of
// the Composition Theorem on the Fig. 9 instance: the paper's Proposition
// 3+4 route versus the direct +v monitor product. This is the ablation for
// the paper's claim that Propositions 3 and 4 give "a better way of proving
// these hypotheses".
func BenchmarkE6_PlusElimination(b *testing.B) {
	cfg := queue.Config{N: 1, Vals: 2}
	b.Run("prop34-route", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			th := cfg.Fig9Theorem()
			report, err := th.CheckHyp2aPropositionsOnly()
			if err != nil || !report.Valid {
				b.Fatalf("valid=%v err=%v", report != nil && report.Valid, err)
			}
		}
	})
	b.Run("direct-monitor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			th := cfg.Fig9Theorem()
			report, err := th.CheckHyp2aDirectOnly()
			if err != nil || !report.Valid {
				b.Fatalf("valid=%v err=%v", report != nil && report.Valid, err)
			}
		}
	})
}

// BenchmarkE8_WhilePlusEquivalences regenerates the §3/§4.2 algebra of ⊳,
// →, ⊥ by exhaustive lasso enumeration.
func BenchmarkE8_WhilePlusEquivalences(b *testing.B) {
	domains := map[string][]value.Value{"e": value.Bits(), "m": value.Bits()}
	ctx := form.NewCtx(domains)
	e := form.AndF(form.Pred(form.Eq(form.Var("e"), form.IntC(0))), form.ActBoxVars(form.FalseE, "e"))
	m := form.AndF(form.Pred(form.Eq(form.Var("m"), form.IntC(0))), form.ActBoxVars(form.FalseE, "m"))
	wp := form.WhilePlus(e, m)
	both := form.AndF(form.Arrow(e, m), form.Orth(e, m))
	universe := check.AllStates([]string{"e", "m"}, domains)
	for i := 0; i < b.N; i++ {
		check.ForAllLassos(universe, 2, 2, func(l *state.Lasso) bool {
			a, err := wp.Eval(ctx, l)
			if err != nil {
				b.Fatal(err)
			}
			c, err := both.Eval(ctx, l)
			if err != nil {
				b.Fatal(err)
			}
			if a != c {
				b.Fatal("equivalence broken")
			}
			return true
		})
	}
}

// BenchmarkE10_CDQRefinement regenerates §A.4: CDQ ⇒ CQ^dbl under the
// refinement mapping, at several instance sizes (safety for all, the full
// check with fairness for the base size).
func BenchmarkE10_CDQRefinement(b *testing.B) {
	sizes := []queue.Config{{N: 1, Vals: 2}, {N: 1, Vals: 3}, {N: 2, Vals: 2}}
	for _, cfg := range sizes {
		cfg := cfg
		b.Run(fmt.Sprintf("safety/N=%d,K=%d", cfg.N, cfg.Vals), func(b *testing.B) {
			g, err := cfg.DoubleSystem(true).Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := check.SafetyUnder(g,
					cfg.DoubleQueueSpec().SafetyOnly().SafetyFormula(), queue.DoubleMapping())
				if err != nil || !res.Holds {
					b.Fatalf("holds=%v err=%v", res != nil && res.Holds, err)
				}
			}
		})
	}
	cfg := queue.Config{N: 1, Vals: 2}
	b.Run("full/N=1,K=2", func(b *testing.B) {
		g, err := cfg.DoubleSystem(true).Build()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := check.Component(g, cfg.DoubleQueueSpec(), queue.DoubleMapping())
			if err != nil || !res.Holds() {
				b.Fatalf("holds=%v err=%v", res != nil && res.Holds(), err)
			}
		}
	})
}

// BenchmarkE11_Fig9 regenerates the full Figure 9 proof: every hypothesis
// of the Composition Theorem for the open double queue.
func BenchmarkE11_Fig9(b *testing.B) {
	for _, cfg := range []queue.Config{{N: 1, Vals: 2}, {N: 1, Vals: 3}} {
		cfg := cfg
		b.Run(fmt.Sprintf("N=%d,K=%d", cfg.N, cfg.Vals), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report, err := cfg.Fig9Theorem().Check()
				if err != nil || !report.Valid {
					b.Fatalf("valid=%v err=%v", report != nil && report.Valid, err)
				}
			}
		})
	}
}

// BenchmarkE12_Fig9WithoutG regenerates §A.5's negative result: without the
// interleaving assumption G the composition claim (3) is refuted.
func BenchmarkE12_Fig9WithoutG(b *testing.B) {
	cfg := queue.Config{N: 1, Vals: 2}
	for i := 0; i < b.N; i++ {
		th := cfg.Fig9Theorem()
		th.Pairs = th.Pairs[1:]
		report, err := th.Check()
		if err != nil || report.Valid {
			b.Fatalf("valid=%v err=%v", report != nil && report.Valid, err)
		}
	}
}

// BenchmarkE14_Corollary regenerates the Corollary: the fused double queue
// refines the (2N+1)-queue under the fixed environment assumption.
func BenchmarkE14_Corollary(b *testing.B) {
	cfg := queue.Config{N: 1, Vals: 2}
	for i := 0; i < b.N; i++ {
		report, err := cfg.CorollaryTheorem().Check()
		if err != nil || !report.Valid {
			b.Fatalf("valid=%v err=%v", report != nil && report.Valid, err)
		}
	}
}

// BenchmarkE15_CompositionalVsMonolithic is the scaling ablation: verifying
// the open composition via the Composition Theorem's hypotheses versus
// verifying the closed double-queue refinement monolithically.
func BenchmarkE15_CompositionalVsMonolithic(b *testing.B) {
	cfg := queue.Config{N: 1, Vals: 2}
	b.Run("compositional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			report, err := cfg.Fig9Theorem().Check()
			if err != nil || !report.Valid {
				b.Fatal(err)
			}
		}
	})
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := cfg.DoubleSystem(true).Build()
			if err != nil {
				b.Fatal(err)
			}
			envRes, err := check.Safety(g, queue.QE("QEdbl", queue.In, queue.Out, cfg.ValueDomain()).SafetyFormula())
			if err != nil || !envRes.Holds {
				b.Fatal(err)
			}
			res, err := check.Component(g, cfg.DoubleQueueSpec(), queue.DoubleMapping())
			if err != nil || !res.Holds() {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE16_Arbiter regenerates the second-domain study: the circular
// arbiter/client composition (with strong fairness) validated by the
// Composition Theorem.
func BenchmarkE16_Arbiter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := arbiter.Theorem().Check()
		if err != nil || !report.Valid {
			b.Fatalf("valid=%v err=%v", report != nil && report.Valid, err)
		}
	}
}

// BenchmarkE17_SerialRefinement regenerates the §2.3 interface-refinement
// study: the serial bit-channel system implements the wide-channel
// specification.
func BenchmarkE17_SerialRefinement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := serial.System(false).Build()
		if err != nil {
			b.Fatal(err)
		}
		res, err := check.Safety(g, serial.WideSpec().SafetyFormula())
		if err != nil || !res.Holds {
			b.Fatalf("holds=%v err=%v", res != nil && res.Holds, err)
		}
	}
}

// BenchmarkGraphBuild measures raw state-graph construction for the
// complete systems of Figures 6 and 8.
func BenchmarkGraphBuild(b *testing.B) {
	for _, cfg := range []queue.Config{{N: 1, Vals: 2}, {N: 2, Vals: 2}, {N: 1, Vals: 3}} {
		cfg := cfg
		b.Run(fmt.Sprintf("CQ/N=%d,K=%d", cfg.N, cfg.Vals), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfg.SingleSystem().Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("CDQ/N=%d,K=%d", cfg.N, cfg.Vals), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfg.DoubleSystem(true).Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuild_Parallel measures parallel frontier exploration of the
// closed double-queue system (Fig. 8) at several worker counts. The graph
// is identical at every setting; only wall time differs.
func BenchmarkBuild_Parallel(b *testing.B) {
	cfg := queue.Config{N: 1, Vals: 3}
	for _, workers := range []int{1, 2, 4, 0} {
		workers := workers
		name := fmt.Sprintf("CDQ/N=%d,K=%d/workers=%d", cfg.N, cfg.Vals, workers)
		if workers == 0 {
			name = fmt.Sprintf("CDQ/N=%d,K=%d/workers=GOMAXPROCS", cfg.N, cfg.Vals)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := cfg.DoubleSystem(true)
				sys.Workers = workers
				g, err := sys.Build()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(g.NumStates()), "states")
			}
		})
	}
}

// BenchmarkFig9_Parallel measures the full Fig. 9 Composition Theorem check
// with parallel exploration of every constructed state graph.
func BenchmarkFig9_Parallel(b *testing.B) {
	cfg := queue.Config{N: 1, Vals: 2}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("N=%d,K=%d/workers=%d", cfg.N, cfg.Vals, workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				th := cfg.Fig9Theorem()
				th.Workers = workers
				report, err := th.Check()
				if err != nil || !report.Valid {
					b.Fatalf("valid=%v err=%v", report != nil && report.Valid, err)
				}
			}
		})
	}
}
