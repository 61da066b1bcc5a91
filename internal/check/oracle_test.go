package check_test

import (
	"fmt"
	"sort"
	"testing"

	"opentla/internal/check"
	"opentla/internal/faultinject"
	"opentla/internal/form"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/ts/tstest"
)

// build builds sys, failing t on error.
func build(t *testing.T, sys *ts.System) *ts.Graph {
	t.Helper()
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// plusProduct is the +v monitor product ag builds for the Composition
// Theorem's route B and the Corollary's hypothesis (a): env held for a
// prefix of the behavior, after which v froze.
func plusProduct(t *testing.T, base *ts.Graph, env *spec.Component, v form.Expr) *ts.Graph {
	t.Helper()
	var envInit form.Expr
	var squares []form.Expr
	if env != nil {
		envInit = env.Init
		squares = []form.Expr{env.SquareExpr()}
	}
	prod, err := ts.Product(base, []*ts.Monitor{ts.PlusMonitor("$plusAlive", envInit, squares, v)})
	if err != nil {
		t.Fatal(err)
	}
	return prod
}

// mutantMapping returns the refinement mapping the named faultinject
// mutant gives cfg's Fig. 9 theorem.
func mutantMapping(t *testing.T, cfg queue.Config, name string) map[string]form.Expr {
	t.Helper()
	for _, mu := range faultinject.Catalog(cfg) {
		if mu.Name == name {
			th := cfg.Fig9Theorem()
			if err := mu.Apply(th); err != nil {
				t.Fatal(err)
			}
			return th.Concl.Mapping
		}
	}
	t.Fatalf("no mutant %q", name)
	return nil
}

// TestSafetyUnderMatchesReferenceFig9 holds SafetyUnder to the substituting
// reference on Fig. 9's obligations under q̄: the left-hand-side graph of
// H2a-A(i)/H2b, and the +v product of H2a-B over the guarantees-only graph,
// unreduced and symmetry-reduced, for K = 2 and 3; with the faultinject
// mutant's truncated mapping both are violated.
func TestSafetyUnderMatchesReferenceFig9(t *testing.T) {
	for _, k := range []int{2, 3} {
		cfg := queue.Config{N: 1, Vals: k}
		th := cfg.Fig9Theorem()
		target := th.Concl.Sys.SafetyFormula()
		truncated := mutantMapping(t, cfg, "mapping-truncate")
		var comps []*spec.Component
		var guarantees []*spec.Component
		var cons []ts.StepConstraint
		for _, p := range th.Pairs {
			if p.Sys != nil {
				comps = append(comps, p.Sys)
				guarantees = append(guarantees, p.Sys.SafetyOnly())
			}
			cons = append(cons, p.Constraints...)
		}
		lhs := build(t, &ts.System{Name: "lhs", Components: append([]*spec.Component{th.Concl.Env}, comps...),
			Constraints: cons, Domains: th.Domains})
		t.Run(fmt.Sprintf("K=%d/lhs", k), func(t *testing.T) {
			if res := check.SameAsReference(t, lhs, target, th.Concl.Mapping); res == nil || !res.Holds {
				t.Fatalf("H2a-A(i) under q̄: %v", res)
			}
			if res := check.SameAsReference(t, lhs, target, truncated); res == nil || res.Holds {
				t.Fatalf("truncated mapping: %v", res)
			}
		})
		var full *ts.Graph // the unreduced product, built first
		for _, sym := range []bool{false, true} {
			sys := &ts.System{Name: "guarantees-only", Components: guarantees, Constraints: cons, Domains: th.Domains}
			if sym {
				sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}
			}
			prod := plusProduct(t, build(t, sys), th.Concl.Env, th.Concl.PlusSub)
			if !sym {
				full = prod
			}
			t.Run(fmt.Sprintf("K=%d/plus/sym=%v", k, sym), func(t *testing.T) {
				if res := check.SameAsReference(t, prod, target, th.Concl.Mapping); res == nil || !res.Holds {
					t.Fatalf("H2a-B under q̄: %v", res)
				}
				res := check.SameAsReference(t, prod, target, truncated)
				if res == nil || res.Holds {
					t.Fatalf("truncated mapping: %v", res)
				}
				// A reduced trace is lifted: a behavior of the full product.
				if err := tstest.ViolatesSafety(full, res.Trace, target.Subst(truncated)); err != nil {
					t.Errorf("truncated mapping: the trace does not replay: %v\n%s", err, res.Trace)
				}
			})
		}
	}
}

// TestSafetyUnderMatchesReferenceAppendixA does the same for the §A.4
// refinement CDQ ⇒ CQ^dbl (with G, and violated without it) and for both
// hypotheses of the Corollary.
func TestSafetyUnderMatchesReferenceAppendixA(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	target := cfg.DoubleQueueSpec().SafetyFormula()
	for _, withG := range []bool{true, false} {
		g := build(t, cfg.DoubleSystem(withG))
		if res := check.SameAsReference(t, g, target, queue.DoubleMapping()); res == nil || res.Holds != withG {
			t.Fatalf("CDQ (G=%v) => CQ^dbl: %v", withG, res)
		}
	}
	cor := cfg.CorollaryTheorem()
	env, low, high := cor.Concl.Env, cor.Pairs[0].Sys, cor.Concl.Sys
	base := build(t, &ts.System{Name: "low-closure", Components: []*spec.Component{low.SafetyOnly()}, Domains: cor.Domains})
	prod := plusProduct(t, base, env, visibleTuple(env, low, high))
	if res := check.SameAsReference(t, prod, high.SafetyFormula(), cor.Concl.Mapping); res == nil || !res.Holds {
		t.Fatalf("Corollary (a): %v", res)
	}
	full := build(t, &ts.System{Name: "full", Components: []*spec.Component{env, low}, Domains: cor.Domains})
	if res := check.SameAsReference(t, full, high.SafetyFormula(), cor.Concl.Mapping); res == nil || !res.Holds {
		t.Fatalf("Corollary (b): %v", res)
	}
}

// TestLivenessUnderMatchesReference holds the liveness checks that read
// images (Liveness, and Component, whose halves share them) to the
// substituting liveness check on Fig. 9's H2b (the left-hand-side graph
// under q̄, the faultinject truncated mapping and the reversed q1 ∘ q2,
// for K = 2 and 3) and on CDQ ⇒ CQ^dbl with and without G.
func TestLivenessUnderMatchesReference(t *testing.T) {
	for _, k := range []int{2, 3} {
		cfg := queue.Config{N: 1, Vals: k}
		th := cfg.Fig9Theorem()
		var comps []*spec.Component
		var cons []ts.StepConstraint
		for _, p := range th.Pairs {
			if p.Sys != nil {
				comps = append(comps, p.Sys)
			}
			cons = append(cons, p.Constraints...)
		}
		lhs := build(t, &ts.System{Name: "lhs", Components: append([]*spec.Component{th.Concl.Env}, comps...),
			Constraints: cons, Domains: th.Domains})
		t.Run(fmt.Sprintf("K=%d/lhs", k), func(t *testing.T) {
			if res := check.SameComponentAsReference(t, lhs, th.Concl.Sys, th.Concl.Mapping); !res.Holds() || res.Liveness == nil {
				t.Fatalf("H2b under q̄: %v", res)
			}
			f := th.Concl.Sys.FairnessFormula()
			if res := check.SameLivenessAsReference(t, lhs, f, mutantMapping(t, cfg, "mapping-truncate")); res == nil {
				t.Fatal("H2b liveness under the truncated mapping failed")
			}
			// q1 ∘ q2 puts the queues in the wrong order: values enter and
			// leave q̄ in its middle, so a fair cycle can take no Enq̄ or
			// Deq̄ step while one stays enabled.
			reversed := map[string]form.Expr{"q": form.Concat(form.Var("q1"), form.Var("q2"))}
			if res := check.SameLivenessAsReference(t, lhs, f, reversed); res == nil || res.Holds {
				t.Fatalf("H2b liveness under q1 ∘ q2: %v", res)
			}
		})
	}
	cfg := queue.Config{N: 1, Vals: 2}
	for _, withG := range []bool{true, false} {
		g := build(t, cfg.DoubleSystem(withG))
		res := check.SameComponentAsReference(t, g, cfg.DoubleQueueSpec(), queue.DoubleMapping())
		if res.Holds() != withG {
			t.Fatalf("CDQ (G=%v) => CQ^dbl: %v", withG, res)
		}
	}
}

// visibleTuple is the Corollary's default v: every input and output of
// its three components.
func visibleTuple(comps ...*spec.Component) form.Expr {
	set := map[string]bool{}
	for _, c := range comps {
		for _, v := range append(append([]string(nil), c.Inputs...), c.Outputs...) {
			set[v] = true
		}
	}
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return form.VarTuple(vars...)
}
