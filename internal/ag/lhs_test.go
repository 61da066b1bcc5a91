package ag_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/arbiter"
	"opentla/internal/circular"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
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
		g.ForEachSucc(id, func(to int) bool {
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

// TestLHSHypothesesIgnoreReduction checks that -reduce sym reaches only the
// guarantees-only graph: H1, H2a-A(i) and H2b are read off the shared LHS
// graph, which is never reduced, so their results (counterexamples
// included) are identical with and without reduction. Every hypothesis's
// verdict is identical too.
func TestLHSHypothesesIgnoreReduction(t *testing.T) {
	for _, tm := range theoremModels() {
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
			if len(off.Hypotheses) != len(sym.Hypotheses) {
				t.Fatalf("hypothesis count: off %d, sym %d", len(off.Hypotheses), len(sym.Hypotheses))
			}
			for i, h := range off.Hypotheses {
				s := sym.Hypotheses[i]
				if h.Name != s.Name || h.Holds != s.Holds {
					t.Errorf("hypothesis %d: off %q holds=%v, sym %q holds=%v", i, h.Name, h.Holds, s.Name, s.Holds)
				}
				if onLHS(h.Name) && h != s {
					t.Errorf("%s: reduction changed an LHS result:\noff: %s\nsym: %s", h.Name, h.Detail, s.Detail)
				}
			}
			if off.Verdict != sym.Verdict {
				t.Errorf("verdict: off %v, sym %v", off.Verdict, sym.Verdict)
			}
		})
	}
}

// onLHS reports whether a hypothesis is checked on the LHS graph.
func onLHS(hyp string) bool {
	for _, p := range []string{"H1[", "H2a-A(i):", "H2b:"} {
		if strings.HasPrefix(hyp, p) {
			return true
		}
	}
	return false
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
