package ag_test

import (
	"fmt"
	"reflect"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/arbiter"
	"opentla/internal/check"
	"opentla/internal/circular"
	"opentla/internal/faultinject"
	"opentla/internal/form"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/ts/tstest"
)

// theoremModel is one of agcheck's theorem models with its symmetry group,
// if it declares one.
type theoremModel struct {
	name string
	make func() *ag.Theorem
	sym  *reduce.Symmetry
}

func theoremModels() []theoremModel {
	cfg := queue.Config{N: 1, Vals: 2}
	return []theoremModel{
		{"circular", circular.SafetyTheorem, nil},
		{"queues", cfg.Fig9Theorem, cfg.DoubleSymmetry()},
		{"queues-no-g", func() *ag.Theorem {
			th := cfg.Fig9Theorem()
			th.Pairs = th.Pairs[1:]
			return th
		}, cfg.DoubleSymmetry()},
		{"arbiter", arbiter.Theorem, nil},
		{"corollary", cfg.CorollaryTheorem, nil},
	}
}

// theoremModelsK23 returns agcheck's theorem models with the queues at K=2
// and 3: circular, arbiter, and queues, queues-no-g and corollary at each
// K.
func theoremModelsK23() []theoremModel {
	models := []theoremModel{
		{"circular", circular.SafetyTheorem, nil},
		{"arbiter", arbiter.Theorem, nil},
	}
	for _, k := range []int{2, 3} {
		cfg := queue.Config{N: 1, Vals: k}
		models = append(models,
			theoremModel{fmt.Sprintf("queues/K=%d", k), cfg.Fig9Theorem, cfg.DoubleSymmetry()},
			theoremModel{fmt.Sprintf("queues-no-g/K=%d", k), func() *ag.Theorem {
				th := cfg.Fig9Theorem()
				th.Pairs = th.Pairs[1:]
				return th
			}, cfg.DoubleSymmetry()},
			theoremModel{fmt.Sprintf("corollary/K=%d", k), cfg.CorollaryTheorem, nil})
	}
	return models
}

// graphShape renders a graph's states, initial states and edges, in
// exploration order.
func graphShape(t *testing.T, sys *ts.System) (states []string, inits []int, edges [][]int) {
	t.Helper()
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("%s: %v", sys.Name, err)
	}
	for id, s := range g.States {
		states = append(states, s.String())
		var succ []int
		g.ForEachSuccEdge(id, func(_, to int) bool {
			succ = append(succ, to)
			return true
		})
		edges = append(edges, succ)
	}
	return states, g.Inits, edges
}

// TestLHSGraphIgnoresFairness is the premise that lets hypotheses 1, 2a(i)
// and 2b share one graph: by Proposition 1, C(E) ∧ ⋀C(M_j) and E ∧ ⋀M_j
// have the same graph, because fairness removes no state and no edge. For
// every theorem model, the LHS system built with fairness and with every
// component stripped to SafetyOnly yields identical states, initial states
// and edges.
func TestLHSGraphIgnoresFairness(t *testing.T) {
	for _, tm := range theoremModels() {
		t.Run(tm.name, func(t *testing.T) {
			full, closed := tm.make().LHSSystem(), tm.make().LHSSystem()
			for i, c := range closed.Components {
				closed.Components[i] = c.SafetyOnly()
			}
			fs, fi, fe := graphShape(t, full)
			cs, ci, ce := graphShape(t, closed)
			if !reflect.DeepEqual(fs, cs) || !reflect.DeepEqual(fi, ci) || !reflect.DeepEqual(fe, ce) {
				t.Fatalf("graphs differ: with fairness %d states / inits %v, without %d states / inits %v",
					len(fs), fi, len(cs), ci)
			}
		})
	}
}

// TestLHSHypothesesIgnoreReduction checks that -reduce sym changes no
// verdict: every hypothesis of every theorem model, of queues-no-g at K=3,
// of every faultinject theorem mutant at K=2 and of the mutants whose H2b
// liveness half fails at K=3, holds or fails alike with and without
// reduction, and so does the theorem. A model without a group, or whose
// group the theorem disables, is checked unreduced either way, so its
// report is identical. Otherwise every counterexample the reduced LHS
// graph gives to hypotheses 1, 2a(i) and 2b replays on the full LHS graph
// (see lhsReplays).
func TestLHSHypothesesIgnoreReduction(t *testing.T) {
	cases := theoremModels()
	cfg3 := queue.Config{N: 1, Vals: 3}
	cases = append(cases, theoremModel{"queues-no-g/K=3", func() *ag.Theorem {
		th := cfg3.Fig9Theorem()
		th.Pairs = th.Pairs[1:]
		return th
	}, cfg3.DoubleSymmetry()})
	for _, k := range []int{2, 3} {
		cfg := queue.Config{N: 1, Vals: k}
		for _, mu := range faultinject.Catalog(cfg) {
			if k == 3 && mu.Name != "fairness-drop-qm1" && mu.Name != "fairness-drop-qm2" {
				continue
			}
			mu := mu
			cases = append(cases, theoremModel{fmt.Sprintf("mutant/%s/K=%d", mu.Name, k), func() *ag.Theorem {
				th := cfg.Fig9Theorem()
				if err := mu.Apply(th); err != nil {
					panic(err)
				}
				return th
			}, cfg.DoubleSymmetry()})
		}
	}
	for _, tm := range cases {
		t.Run(tm.name, func(t *testing.T) {
			run := func(opts reduce.Options) *ag.Report {
				th := tm.make()
				th.Reduce, th.Symmetry = opts, tm.sym
				r, err := th.Check()
				if err != nil {
					t.Fatalf("-reduce %s: %v", opts, err)
				}
				return r
			}
			off, sym := run(reduce.Options{}), run(reduce.Options{Sym: true})
			reduced := false
			if tm.sym != nil {
				th := tm.make()
				th.Reduce, th.Symmetry = reduce.Options{Sym: true}, tm.sym
				reduced = th.LHSSystem().Reduce.Active()
			}
			if len(off.Hypotheses) != len(sym.Hypotheses) {
				t.Fatalf("hypothesis count: off %d, sym %d", len(off.Hypotheses), len(sym.Hypotheses))
			}
			for i, h := range off.Hypotheses {
				s := sym.Hypotheses[i]
				if h.Name != s.Name || h.Holds != s.Holds {
					t.Errorf("hypothesis %d: off %q holds=%v, sym %q holds=%v", i, h.Name, h.Holds, s.Name, s.Holds)
				}
				if !reduced && h != s {
					t.Errorf("%s: not reduced, yet -reduce sym changed the result:\noff: %s\nsym: %s", h.Name, h.Detail, s.Detail)
				}
			}
			if off.Verdict != sym.Verdict {
				t.Errorf("verdict: off %v, sym %v", off.Verdict, sym.Verdict)
			}
			if reduced {
				n := lhsReplays(t, tm.make, tm.sym)
				t.Logf("%d reduced counterexamples replayed", n)
			}
		})
	}
}

// lhsReplays checks hypotheses 1, 2a(i) and 2b of the theorem mk makes on
// its LHS graph built under sym and unreduced: each obligation must hold or
// fail alike on both, and every counterexample of the reduced graph must be
// a behavior of the full graph that violates the obligation under form's
// lasso semantics, with the LHS's fairness TRUE on a liveness lasso. It
// returns how many counterexamples it replayed.
func lhsReplays(t *testing.T, mk func() *ag.Theorem, sym *reduce.Symmetry) int {
	t.Helper()
	th := mk()
	th.Reduce, th.Symmetry = reduce.Options{Sym: true}, sym
	redSys := th.LHSSystem()
	red, err := redSys.Build()
	if err != nil {
		t.Fatal(err)
	}
	full, err := mk().LHSSystem().Build()
	if err != nil {
		t.Fatal(err)
	}
	var obls []check.Obligation
	for _, p := range th.Pairs {
		if p.Env != nil {
			obls = append(obls, check.Obligation{F: p.Env.SafetyFormula()})
		}
	}
	m := th.Concl.Sys
	obls = append(obls, check.Obligation{F: m.SafetyFormula(), Mapping: th.Concl.Mapping})
	shown := func(f form.Formula) form.Formula {
		if th.Concl.Mapping == nil {
			return f
		}
		return f.Subst(th.Concl.Mapping)
	}
	rw, err := check.SafetyAll(red, obls)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := check.SafetyAll(full, obls)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for i, w := range rw {
		if w.Err != nil || fw[i].Err != nil {
			t.Fatalf("%s: reduced error %v, full error %v", w.F, w.Err, fw[i].Err)
		}
		if w.Result.Holds != fw[i].Result.Holds {
			t.Errorf("%s: reduced holds=%v, full holds=%v", w.F, w.Result.Holds, fw[i].Result.Holds)
		}
		if w.Result.Holds {
			continue
		}
		f := w.F
		if w.Mapping != nil {
			f = shown(f)
		}
		if err := tstest.ViolatesSafety(full, w.Result.Trace, f); err != nil {
			t.Errorf("%s: reduced counterexample does not replay: %v\n%s", w.F, err, w.Result.Trace)
		}
		replayed++
	}
	if cm := rw[len(rw)-1]; cm.Result.Holds && len(m.Fairness) > 0 {
		rl, err := cm.Liveness(red, m.FairnessFormula())
		if err != nil {
			t.Fatal(err)
		}
		fl, err := check.Liveness(full, m.FairnessFormula(), th.Concl.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		if rl.Holds != fl.Holds {
			t.Errorf("H2b liveness: reduced holds=%v, full holds=%v", rl.Holds, fl.Holds)
		}
		if !rl.Holds {
			var fair []form.Formula
			for _, c := range redSys.Components {
				if len(c.Fairness) > 0 {
					fair = append(fair, c.FairnessFormula())
				}
			}
			if err := tstest.ViolatesLiveness(full, rl.Counterexample, form.AndF(fair...), shown(m.FairnessFormula())); err != nil {
				t.Errorf("H2b liveness: reduced counterexample does not replay: %v\n%s", err, rl.Counterexample)
			}
			replayed++
		}
	}
	return replayed
}

// TestFig9LHSIsCDQ pins the identity queueverify relies on to read §A.4
// off Fig. 9: the theorem's left-hand side QE^dbl ∧ G ∧ QM¹ ∧ QM² is the
// CDQ system, so the theorem's hypothesis (2b) under q̄ is CDQ ⇒ CQ^dbl.
// Equal canonical descriptions mean byte-identical graphs (the graph
// cache's contract); if either side drifts, the §A.4 line would state a
// different claim.
func TestFig9LHSIsCDQ(t *testing.T) {
	for _, c := range []queue.Config{{N: 1, Vals: 2}, {N: 1, Vals: 3}, {N: 2, Vals: 2}} {
		cdq := c.DoubleSystem(true).CanonicalDesc()
		lhs := c.Fig9Theorem().LHSSystem().CanonicalDesc()
		if cdq != lhs {
			t.Errorf("N=%d K=%d: CDQ and the Fig. 9 left-hand side differ:\nCDQ: %s\nLHS: %s", c.N, c.Vals, cdq, lhs)
		}
	}
}

// TestCorollaryGraphsAreRefinementGraphs pins that the Corollary, as a
// one-pair theorem, builds the graphs of the refinement it states: its
// left-hand side is QE^dbl ∧ DQ and its guarantees-only graph is C(DQ)
// with the environment free. Names are not part of a CanonicalDesc, so a
// graph cache filled by the Corollary's former driver, which built exactly
// these two systems, still hits.
func TestCorollaryGraphsAreRefinementGraphs(t *testing.T) {
	for _, c := range []queue.Config{{N: 1, Vals: 2}, {N: 1, Vals: 3}} {
		th := c.CorollaryTheorem()
		env, dq := queue.QE("QEdbl", queue.In, queue.Out, c.ValueDomain()), c.FusedDouble()
		for _, tc := range []struct {
			name      string
			got, want *ts.System
		}{
			{"LHS", th.LHSSystem(), &ts.System{Components: []*spec.Component{env, dq}, Domains: c.DoubleDomains()}},
			{"guarantees-only", th.GuaranteesSystem(), &ts.System{Components: []*spec.Component{dq.SafetyOnly()}, Domains: c.DoubleDomains()}},
		} {
			if got, want := tc.got.CanonicalDesc(), tc.want.CanonicalDesc(); got != want {
				t.Errorf("N=%d K=%d %s: the Corollary's graph differs from the direct one:\ngot:  %s\nwant: %s", c.N, c.Vals, tc.name, got, want)
			}
		}
	}
}
