package models

import (
	"testing"

	"opentla/internal/form"
	"opentla/internal/queue"
	"opentla/internal/spec"
	"opentla/internal/ts"
)

// fairnessAngles returns ⟨A⟩_v for every fairness condition of the system's
// components and for every fairness target of spec target under mapping,
// as the liveness checker builds them.
func fairnessAngles(sys *ts.System, target *spec.Component, mapping map[string]form.Expr) []form.Expr {
	var out []form.Expr
	for _, c := range sys.Components {
		for _, fc := range c.Fairness {
			sub := fc.Sub
			if sub == nil {
				sub = c.SubTuple()
			}
			out = append(out, form.Angle(fc.Action, sub))
		}
	}
	var collect func(f form.Formula)
	collect = func(f form.Formula) {
		switch f := f.(type) {
		case form.AndFm:
			for _, g := range f.Fs {
				collect(g)
			}
		case form.FairF:
			out = append(out, form.Angle(f.A, f.Sub))
		}
	}
	collect(target.FairnessFormula().Subst(mapping))
	return out
}

// TestFairnessEnabledFnMatchesEnabled holds the compiled enabledness query
// (form.Ctx.EnabledFn, which indexes the mapped equality of Fig. 9's q̄) to
// the interpreted form.Ctx.Enabled on every state of hypothesis 2b's
// full-LHS graph of Fig. 9 at N=1 K=2 and of CDQ ⇒ CQ^dbl, for every
// fairness condition and every mapped fairness target.
func TestFairnessEnabledFnMatchesEnabled(t *testing.T) {
	c := queue.Config{N: 1, Vals: 2}
	th := c.Fig9Theorem()
	// E ∧ ⋀M_j with fairness, as hypothesis 2b builds it.
	fullLHS := &ts.System{Name: "fig9-full-lhs", Domains: th.Domains}
	fullLHS.Components = append(fullLHS.Components, th.Concl.Env)
	for _, p := range th.Pairs {
		if p.Sys != nil {
			fullLHS.Components = append(fullLHS.Components, p.Sys)
		}
		fullLHS.Constraints = append(fullLHS.Constraints, p.Constraints...)
	}
	for _, tc := range []struct {
		sys     *ts.System
		target  *spec.Component
		mapping map[string]form.Expr
	}{
		{fullLHS, th.Concl.Sys, th.Concl.Mapping},
		{c.DoubleSystem(true), c.DoubleQueueSpec(), queue.DoubleMapping()},
	} {
		t.Run(tc.sys.Name, func(t *testing.T) {
			g, err := tc.sys.Build()
			if err != nil {
				t.Fatal(err)
			}
			layout := g.States[0].Vars()
			angles := fairnessAngles(tc.sys, tc.target, tc.mapping)
			if len(angles) != 3 {
				t.Fatalf("%d fairness angles, want 3 (two queues and the mapped target)", len(angles))
			}
			for _, a := range angles {
				en := g.Ctx.EnabledFn(a, layout)
				enabled := 0
				for _, s := range g.States {
					got, gotErr := en(s)
					want, wantErr := g.Ctx.Enabled(a, s)
					if gotErr != nil || wantErr != nil {
						t.Fatalf("%s on %s: EnabledFn error %v, Enabled error %v", a, s, gotErr, wantErr)
					}
					if got != want {
						t.Fatalf("%s on %s: EnabledFn %v, Enabled %v", a, s, got, want)
					}
					if got {
						enabled++
					}
				}
				if enabled == 0 || enabled == len(g.States) {
					t.Errorf("%s is enabled on %d of %d states; the comparison is vacuous", a, enabled, len(g.States))
				}
			}
		})
	}
}
