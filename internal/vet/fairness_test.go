package vet

import (
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
)

func TestFairnessDiagnostics(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(c *spec.Component)
		want   string
		sev    Severity
	}{
		{"canonical-nil-sub", func(c *spec.Component) {}, "", 0},
		{"explicit-owned-sub", func(c *spec.Component) {
			c.Fairness[0].Sub = form.VarTuple("x", "h")
		}, "", 0},
		{"primed-sub", func(c *spec.Component) {
			c.Fairness[0].Sub = form.PrimedVar("x")
		}, "SV030", Error},
		{"undeclared-sub-var", func(c *spec.Component) {
			c.Fairness[0].Sub = form.VarTuple("x", "ghost")
		}, "SV031", Error},
		{"undeclared-action-var", func(c *spec.Component) {
			c.Fairness[0].Action = form.Eq(form.PrimedVar("x"), form.Var("ghost"))
		}, "SV001", Error},
		{"fair-action-writes-input", func(c *spec.Component) {
			c.Fairness[0].Action = form.Eq(form.PrimedVar("d"), form.IntC(1))
		}, "SV032", Error},
		{"no-owned-var-in-sub", func(c *spec.Component) {
			c.Fairness[0].Sub = form.Var("d")
		}, "SV033", Warn},
		{"input-mixed-into-sub", func(c *spec.Component) {
			c.Fairness[0].Sub = form.VarTuple("d", "x", "h")
		}, "SV034", Info},
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
			d := diag(t, res, tc.want)
			if d.Severity != tc.sev {
				t.Errorf("%s severity = %v, want %v", tc.want, d.Severity, tc.sev)
			}
			if d.Action != "WF[0]" {
				t.Errorf("%s location = %q, want WF[0]", tc.want, d.Action)
			}
		})
	}
}

func TestStrongFairnessLocation(t *testing.T) {
	c := clean()
	c.Fairness[0].Kind = form.Strong
	c.Fairness[0].Sub = form.PrimedVar("x")
	res := Component(c)
	if d := diag(t, res, "SV030"); d.Action != "SF[0]" {
		t.Errorf("location = %q, want SF[0]", d.Action)
	}
}
