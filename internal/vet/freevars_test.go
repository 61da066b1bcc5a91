package vet

import (
	"testing"

	"opentla/internal/absint"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/value"
)

func TestFreeVarDiagnostics(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *spec.Component)
		want   string // code expected; "" means no finding
	}{
		{"clean", func(c *spec.Component) {}, ""},
		{"undeclared-in-action", func(c *spec.Component) {
			c.Actions[0].Def = form.Eq(form.PrimedVar("x"), form.Var("ghost"))
		}, "SV001"},
		{"undeclared-in-init", func(c *spec.Component) {
			c.Init = form.Eq(form.Var("ghost"), form.IntC(0))
		}, "SV001"},
		{"primed-input", func(c *spec.Component) {
			c.Actions[0].Def = form.Eq(form.PrimedVar("d"), form.IntC(1))
		}, "SV002"},
		{"primed-input-in-arith", func(c *spec.Component) {
			c.Actions[0].Def = form.Gt(form.Add(form.PrimedVar("d"), form.IntC(1)), form.IntC(0))
		}, "SV002"},
		{"unchanged-input-is-benign", func(c *spec.Component) {
			c.Actions[0].Def = form.And(c.Actions[0].Def, form.Unchanged("d"))
		}, ""},
		{"unchanged-tuple-is-benign", func(c *spec.Component) {
			c.Actions[0].Def = form.Or(c.Actions[0].Def,
				form.UnchangedExpr(form.VarTuple("d", "x", "h")))
		}, ""},
		{"primed-init", func(c *spec.Component) {
			c.Init = form.Eq(form.PrimedVar("x"), form.IntC(0))
		}, "SV004"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := clean()
			tc.mutate(c)
			res := Component(c)
			if tc.want == "" {
				if len(res.Diagnostics) != 0 {
					t.Errorf("unexpected diagnostics:\n%s", res)
				}
				return
			}
			diag(t, res, tc.want)
		})
	}
}

func TestWrites(t *testing.T) {
	cases := []struct {
		name string
		e    form.Expr
		want []string
	}{
		{"plain-assign", form.Eq(form.PrimedVar("x"), form.IntC(1)), []string{"x"}},
		{"reversed-assign", form.Eq(form.IntC(1), form.PrimedVar("x")), []string{"x"}},
		{"stutter", form.Unchanged("x"), nil},
		{"tuple-stutter", form.UnchangedExpr(form.VarTuple("x", "y")), nil},
		{"mixed-and", form.And(form.Eq(form.PrimedVar("x"), form.IntC(1)), form.Unchanged("y")), []string{"x"}},
		{"or-branches", form.Or(form.Eq(form.PrimedVar("x"), form.IntC(1)), form.Eq(form.PrimedVar("y"), form.IntC(2))), []string{"x", "y"}},
		{"inequality-writes", form.Ne(form.PrimedVar("x"), form.Var("x")), []string{"x"}},
		{"quantifier-strips-binder", form.Exists("v", value.Ints(0, 1),
			form.Eq(form.PrimedVar("x"), form.Var("v"))), []string{"x"}},
		{"read-only", form.Gt(form.Var("x"), form.IntC(0)), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := absint.SortedVars(absint.Writes(tc.e))
			if len(got) != len(tc.want) {
				t.Fatalf("writes = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("writes = %v, want %v", got, tc.want)
				}
			}
		})
	}
}
