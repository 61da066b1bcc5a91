package vet

import (
	"testing"

	"opentla/internal/form"
	"opentla/internal/value"
)

func TestVarUsageDiagnostics(t *testing.T) {
	t.Run("all-referenced", func(t *testing.T) {
		res := Component(clean())
		if hasCode(res, "SV060") {
			t.Errorf("fully-referenced component flagged:\n%s", res)
		}
	})
	t.Run("unreferenced-input", func(t *testing.T) {
		c := clean()
		c.Inputs = append(c.Inputs, "spare")
		res := Component(c)
		d := diag(t, res, "SV060")
		if d.Severity != Info || d.Component != "clean" {
			t.Errorf("SV060 = %+v", d)
		}
	})
	t.Run("sub-reference-counts", func(t *testing.T) {
		// A variable referenced only by a fairness subscript is referenced.
		c := clean()
		c.Inputs = append(c.Inputs, "spare")
		c.Fairness[0].Sub = form.VarTuple("x", "h", "spare")
		res := Component(c)
		if hasCode(res, "SV060") {
			t.Errorf("subscript reference not counted:\n%s", res)
		}
	})
	t.Run("shadowing-quantifier", func(t *testing.T) {
		c := clean()
		c.Actions[0].Def = form.Exists("d", value.Ints(0, 1),
			form.Eq(form.PrimedVar("x"), form.Var("d")))
		res := Component(c)
		d := diag(t, res, "SV061")
		if d.Severity != Warn || d.Action != "Inc" {
			t.Errorf("SV061 = %+v", d)
		}
	})
	t.Run("fresh-binder-is-fine", func(t *testing.T) {
		c := clean()
		c.Actions[0].Def = form.Exists("$v", value.Ints(0, 1),
			form.Eq(form.PrimedVar("x"), form.Var("$v")))
		res := Component(c)
		if hasCode(res, "SV061") {
			t.Errorf("fresh binder flagged:\n%s", res)
		}
	})
}
