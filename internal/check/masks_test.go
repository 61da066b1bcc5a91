package check_test

import (
	"fmt"
	"testing"

	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// fig9LHS returns the system of Fig. 9's left-hand side E ∧ ⋀Mⱼ with
// fairness, as H2b checks it, reduced by the double queue's symmetry when
// sym is set.
func fig9LHS(cfg queue.Config, sym bool) *ts.System {
	th := cfg.Fig9Theorem()
	sys := &ts.System{Name: "lhs", Components: []*spec.Component{th.Concl.Env}, Domains: th.Domains}
	for _, p := range th.Pairs {
		if p.Sys != nil {
			sys.Components = append(sys.Components, p.Sys)
		}
		sys.Constraints = append(sys.Constraints, p.Constraints...)
	}
	if sym {
		sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}
	}
	return sys
}

// sides renders the per-conjunct sides SameMasksAsReference reports.
func sides(abstract []bool) string {
	out := ""
	for _, a := range abstract {
		if a {
			out += "A"
		} else {
			out += "S"
		}
	}
	return out
}

// TestEnabledMasksMatchReference holds the ENABLED masks of mapped WF/SF
// targets to the substituted masks, state by state: Fig. 9's H2b under q̄
// (unreduced and symmetry-reduced, K = 2 to 4), read on the images, and
// under the faultinject mutant's truncated mapping and the reversed
// q1 ∘ q2, which are not onto the abstract queue's domain and so are
// substituted; CDQ ⇒ CQ^dbl with and without G; and the Corollary's
// (b), the fused double queue under q̄, with its two WF targets. The
// subtests are independent and run in parallel; fig9/K=4/sym=false is the
// longest.
func TestEnabledMasksMatchReference(t *testing.T) {
	reversed := map[string]form.Expr{"q": form.Concat(form.Var("q1"), form.Var("q2"))}
	for _, k := range []int{2, 3, 4} {
		cfg := queue.Config{N: 1, Vals: k}
		th := cfg.Fig9Theorem()
		f := th.Concl.Sys.FairnessFormula()
		for _, sym := range []bool{false, true} {
			t.Run(fmt.Sprintf("fig9/K=%d/sym=%v", k, sym), func(t *testing.T) {
				t.Parallel()
				lhs := build(t, fig9LHS(cfg, sym))
				for _, tc := range []struct {
					name    string
					mapping map[string]form.Expr
					want    string
				}{
					{"q-bar", th.Concl.Mapping, "A"},
					{"truncated", mutantMapping(t, cfg, "mapping-truncate"), "S"},
					{"reversed", reversed, "S"},
				} {
					if got := sides(check.SameMasksAsReference(t, lhs, f, tc.mapping)); got != tc.want {
						t.Errorf("%s: masks read on sides %q, want %q", tc.name, got, tc.want)
					}
				}
			})
		}
	}
	cfg := queue.Config{N: 1, Vals: 2}
	for _, withG := range []bool{true, false} {
		t.Run(fmt.Sprintf("cdq/G=%v", withG), func(t *testing.T) {
			t.Parallel()
			g := build(t, cfg.DoubleSystem(withG))
			if got := sides(check.SameMasksAsReference(t, g, cfg.DoubleQueueSpec().FairnessFormula(), queue.DoubleMapping())); got != "A" {
				t.Errorf("masks read on sides %q, want A", got)
			}
		})
	}
	t.Run("corollary", func(t *testing.T) {
		t.Parallel()
		cor := cfg.CorollaryTheorem()
		full := build(t, &ts.System{Name: "full", Components: []*spec.Component{cor.Concl.Env, cor.Pairs[0].Sys}, Domains: cor.Domains})
		if got := sides(check.SameMasksAsReference(t, full, cor.Concl.Sys.FairnessFormula(), cor.Concl.Mapping)); got != "A" {
			t.Errorf("Corollary (b): masks read on sides %q, want A", got)
		}
	})
}

// TestEnabledMaskFallbacks: on x, y ∈ 0..2, each incremented or reset on
// its own, with d ∈ 0..2 declared for the mapped variable, a WF target's
// mask is read on the images only under a mapping onto d's domain that no
// variable of the target's action reads and that binds no graph variable.
// Each fallback is needed: ⟨d' ≠ d ∧ x' = x⟩_d under d ↦ x is never
// enabled, yet enabled on every image.
func TestEnabledMaskFallbacks(t *testing.T) {
	x, y, d := form.Var("x"), form.Var("y"), form.Var("d")
	step := func(v, other string) spec.Action {
		return spec.Action{Name: "Step" + v, Def: form.And(
			form.Eq(form.PrimedVar(v), form.If(form.Lt(form.Var(v), form.IntC(2)), form.Add(form.Var(v), form.IntC(1)), form.IntC(0))),
			form.Unchanged(other))}
	}
	dom := value.Ints(0, 2)
	g := build(t, &ts.System{Name: "xy", Components: []*spec.Component{{
		Name: "xy", Outputs: []string{"x", "y"},
		Init:     form.And(form.Eq(x, form.IntC(0)), form.Eq(y, form.IntC(0))),
		Actions:  []spec.Action{step("x", "y"), step("y", "x")},
		Fairness: []spec.Fairness{{Kind: form.Weak, Action: form.Or(step("x", "y").Def, step("y", "x").Def), Sub: form.VarTuple("x", "y")}},
	}}, Domains: map[string][]value.Value{"x": dom, "y": dom, "d": dom}})
	moves := form.Ne(form.PrimedVar("d"), d)
	for _, tc := range []struct {
		name    string
		f       form.Formula
		mapping map[string]form.Expr
		want    string
	}{
		{"onto", form.WFVars(moves, "d"), map[string]form.Expr{"d": x}, "A"},
		{"onto-sum", form.SFVars(moves, "d"), map[string]form.Expr{"d": form.Mod(form.Add(x, y), form.IntC(3))}, "A"},
		{"not-onto", form.WFVars(moves, "d"), map[string]form.Expr{"d": form.Mod(x, form.IntC(2))}, "S"},
		{"leaves-domain", form.WFVars(moves, "d"), map[string]form.Expr{"d": form.Add(x, form.IntC(1))}, "S"},
		{"action-reads-mapped", form.WFVars(form.And(moves, form.Unchanged("x")), "d"), map[string]form.Expr{"d": x}, "S"},
		{"mapped-graph-variable", form.WFVars(form.Ne(form.PrimedVar("y"), y), "y"), map[string]form.Expr{"y": x}, "S"},
		{"mapping-fails", form.WFVars(moves, "d"), map[string]form.Expr{"d": form.If(form.Eq(x, form.IntC(2)), form.Head(form.EmptySeq), x)}, "S"},
		{"reads-unbound", form.WFVars(moves, "d"), map[string]form.Expr{"d": form.If(form.Eq(x, form.IntC(2)), form.Var("absent"), x)}, "S"},
		{"reads-primed", form.WFVars(moves, "d"), map[string]form.Expr{"d": form.If(form.Eq(x, form.IntC(2)), form.PrimedVar("y"), x)}, "S"},
		{"two-names", form.WFVars(moves, "d"), map[string]form.Expr{"a": form.Var("absent"), "d": x}, "S"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := sides(check.SameMasksAsReference(t, g, tc.f, tc.mapping)); got != tc.want {
				t.Errorf("mask read on side %q, want %q", got, tc.want)
			}
		})
	}
}

// TestEnabledMaskSides: the liveness check counts H2b's mask under q̄ as
// read on the images and under the truncated mapping as substituted, with
// the same verdicts as the substituting check.
func TestEnabledMaskSides(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	th := cfg.Fig9Theorem()
	f := th.Concl.Sys.FairnessFormula()
	for _, tc := range []struct {
		name                  string
		mapping               map[string]form.Expr
		abstract, substituted int64
	}{
		{"q-bar", th.Concl.Mapping, 1, 0},
		{"truncated", mutantMapping(t, cfg, "mapping-truncate"), 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := engine.NoLimit()
			rec := obs.New(m)
			rec.EnableTelemetry()
			lhs, err := fig9LHS(cfg, false).BuildWith(m)
			if err != nil {
				t.Fatal(err)
			}
			check.SameLivenessAsReference(t, lhs, f, tc.mapping)
			counts := map[string]int64{}
			for _, p := range rec.Points() {
				counts[p.Name] = p.Value
			}
			// The reference check substitutes the mapping itself and so
			// reads no mapped mask.
			if a, s := counts["opentla_enabled_masks_abstract_total"], counts["opentla_enabled_masks_substituted_total"]; a != tc.abstract || s != tc.substituted {
				t.Errorf("%d abstract, %d substituted masks; want %d, %d", a, s, tc.abstract, tc.substituted)
			}
		})
	}
}

// TestImagesMatchFresh holds the memoized images to a fresh evaluation of
// the mapping on every state and real successor of Fig. 9's left-hand
// side and of its symmetry-reduced +v product, under q̄ and the truncated
// mapping, and of CDQ under q̄.
func TestImagesMatchFresh(t *testing.T) {
	for _, k := range []int{2, 3} {
		cfg := queue.Config{N: 1, Vals: k}
		th := cfg.Fig9Theorem()
		lhs := build(t, fig9LHS(cfg, false))
		var guarantees []*spec.Component
		var cons []ts.StepConstraint
		for _, p := range th.Pairs {
			if p.Sys != nil {
				guarantees = append(guarantees, p.Sys.SafetyOnly())
			}
			cons = append(cons, p.Constraints...)
		}
		sys := &ts.System{Name: "guarantees-only", Components: guarantees, Constraints: cons, Domains: th.Domains,
			Reduce: &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}}
		prod := plusProduct(t, build(t, sys), th.Concl.Env, th.Concl.PlusSub)
		for _, mapping := range []map[string]form.Expr{th.Concl.Mapping, mutantMapping(t, cfg, "mapping-truncate")} {
			check.SameImagesAsFresh(t, lhs, mapping)
			check.SameImagesAsFresh(t, prod, mapping)
		}
	}
	check.SameImagesAsFresh(t, build(t, queue.Config{N: 1, Vals: 2}.DoubleSystem(true)), queue.DoubleMapping())
}
