package check_test

import (
	"fmt"
	"testing"

	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// fig9Systems returns the left-hand-side system of cfg's Fig. 9 theorem,
// without G if noG (E ∧ ⋀M_j with fairness), and its guarantees-only
// system (⋀C(M_j), the environment unconstrained) reduced under rd.
func fig9Systems(cfg queue.Config, noG bool, rd *reduce.Config) (lhs, gonly *ts.System) {
	t := cfg.Fig9Theorem()
	if noG {
		t.Pairs = t.Pairs[1:]
	}
	var comps, guarantees []*spec.Component
	var cons []ts.StepConstraint
	for _, p := range t.Pairs {
		if p.Sys != nil {
			comps = append(comps, p.Sys)
			guarantees = append(guarantees, p.Sys.SafetyOnly())
		}
		cons = append(cons, p.Constraints...)
	}
	lhs = &ts.System{Name: "lhs", Components: append([]*spec.Component{t.Concl.Env}, comps...),
		Constraints: cons, Domains: t.Domains}
	gonly = &ts.System{Name: "guarantees-only", Components: guarantees, Constraints: cons,
		Domains: t.Domains, Reduce: rd}
	return lhs, gonly
}

// verdicts renders the walked verdicts, failing t on an obligation error.
func verdicts(t *testing.T, ws []*check.Walked) string {
	t.Helper()
	out := ""
	for _, w := range ws {
		if w.Err != nil {
			t.Fatalf("obligation error: %v", w.Err)
		}
		out += fmt.Sprint(w.Result.Holds, " ")
	}
	return out
}

// TestSafetyAllMatchesReference holds one multi-obligation walk to the
// substituting reference, obligation by obligation (verdict, violation and
// trace), on the obligations a Fig. 9 check reads together: the LHS
// graph's H1 assumptions and C(M) under q̄, the truncated mutant mapping
// and the reversed q1 ∘ q2, at K=2 and 3; the same without G, where
// several obligations fail at different points; and the symmetry-reduced
// guarantees-only graph's Disjoint(e, m), initial-state disjunction and
// C(M), where box steps reach real successors that are not graph states.
func TestSafetyAllMatchesReference(t *testing.T) {
	reversed := map[string]form.Expr{"q": form.Concat(form.Var("q1"), form.Var("q2"))}
	for _, k := range []int{2, 3} {
		cfg := queue.Config{N: 1, Vals: k}
		th := cfg.Fig9Theorem()
		target := th.Concl.Sys.SafetyFormula()
		truncated := mutantMapping(t, cfg, "mapping-truncate")
		lhsObls := func(noG bool) []check.Obligation {
			pairs := th.Pairs
			if noG {
				pairs = pairs[1:]
			}
			var obls []check.Obligation
			for _, p := range pairs {
				if p.Env != nil {
					obls = append(obls, check.Obligation{F: p.Env.SafetyFormula()})
				}
			}
			return append(obls,
				check.Obligation{F: target, Mapping: th.Concl.Mapping},
				check.Obligation{F: target, Mapping: truncated},
				check.Obligation{F: target, Mapping: reversed})
		}
		for _, noG := range []bool{false, true} {
			lhs, _ := fig9Systems(cfg, noG, nil)
			t.Run(fmt.Sprintf("K=%d/lhs/noG=%v", k, noG), func(t *testing.T) {
				ws := check.SameWalkAsReference(t, build(t, lhs), lhsObls(noG))
				want := map[bool]string{false: "true true true false false ", true: "false false false false false "}[noG]
				if got := verdicts(t, ws); got != want {
					t.Errorf("verdicts %q, want %q", got, want)
				}
				if noG && ws[0].Result.Violation == ws[2].Result.Violation {
					t.Errorf("H1[Q1] and C(M) fail with the same violation %q", ws[0].Result.Violation)
				}
			})
		}
		sym := &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}
		for _, noG := range []bool{false, true} {
			_, gonly := fig9Systems(cfg, noG, sym)
			e, m := th.Concl.Env, th.Concl.Sys
			obls := []check.Obligation{
				{F: form.Disjoint(e.Outputs, m.Outputs)},
				{F: form.Pred(form.Or(e.Init, m.Init.Subst(th.Concl.Mapping)))},
				{F: target, Mapping: th.Concl.Mapping},
				{F: target, Mapping: truncated},
			}
			t.Run(fmt.Sprintf("K=%d/guarantees-only/sym/noG=%v", k, noG), func(t *testing.T) {
				g := build(t, gonly)
				moved := 0
				g.ForEachEdgeStep(func(_, to int, real *state.State) bool {
					if real != g.States[to] {
						moved++
					}
					return true
				})
				if !g.Reduced() || moved == 0 {
					t.Fatalf("reduced %v, %d edges to a real successor that is not a graph state", g.Reduced(), moved)
				}
				ws := check.SameWalkAsReference(t, g, obls)
				if ws[0].Result.Holds == noG {
					t.Errorf("Disjoint(e, m) holds = %v without G = %v", ws[0].Result.Holds, noG)
				}
			})
		}
	}
}
