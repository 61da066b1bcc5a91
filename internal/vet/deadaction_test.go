package vet

import (
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
)

func TestDeadActionDiagnostics(t *testing.T) {
	p := form.Gt(form.Var("x"), form.IntC(0))
	assign := form.Eq(form.PrimedVar("x"), form.IntC(1))
	cases := []struct {
		name string
		def  form.Expr
		dead bool
	}{
		{"live-assignment", assign, false},
		{"false-constant", form.FalseE, true},
		{"not-true", form.Not(form.TrueE), true},
		{"guard-and-negation", form.And(p, form.Not(p), assign), true},
		{"nested-contradiction", form.And(form.And(p, assign), form.Not(p)), true},
		{"or-of-dead-branches", form.Or(form.FalseE, form.And(p, form.Not(p))), true},
		{"or-with-live-branch", form.Or(form.FalseE, assign), false},
		{"and-with-false-conjunct", form.And(assign, form.FalseE), true},
		{"distinct-guards-live", form.And(p, form.Not(form.Gt(form.Var("x"), form.IntC(1))), assign), false},
		{"negation-pair-in-or-is-live", form.Or(p, form.Not(p)), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := clean()
			c.Actions = []spec.Action{{Name: "A", Def: tc.def}}
			c.Fairness = nil
			res := Component(c)
			if got := hasCode(res, "SV050"); got != tc.dead {
				t.Errorf("SV050 = %v, want %v\n%s", got, tc.dead, res)
			}
		})
	}
}
