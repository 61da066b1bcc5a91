package vet

import (
	"opentla/internal/form"
	"opentla/internal/spec"
)

// checkDeadActions implements SV050: an action whose definition is
// syntactically unsatisfiable can never contribute a step, so the
// next-state disjunction quietly loses a disjunct — usually the residue of
// an edit that inverted a guard. The check is purely syntactic (FALSE
// constants, empty disjunctions, contradictory conjuncts p ∧ ¬p) and
// therefore sound: everything it flags really is dead, though plenty of
// semantically dead actions pass it.
func checkDeadActions(res *Result, c *spec.Component) {
	for _, a := range c.Actions {
		if deadExpr(a.Def) {
			res.add(Diagnostic{
				Code: "SV050", Severity: Warn, Component: c.Name, Action: a.Name,
				Message: "action definition is syntactically unsatisfiable; the action can never take a step",
				Hint:    "remove the action or fix its guard",
			})
		}
	}
}

var (
	trueStr  = form.TrueE.String()
	falseStr = form.FalseE.String()
)

func deadExpr(e form.Expr) bool {
	switch x := e.(type) {
	case form.ConstE:
		return x.String() == falseStr
	case form.NotE:
		return x.X.String() == trueStr
	case form.OrE:
		for _, c := range x.Xs {
			if !deadExpr(c) {
				return false
			}
		}
		return true
	case form.AndE:
		pos := make(map[string]bool)
		neg := make(map[string]bool)
		for _, c := range form.FlattenAnd(x, nil) {
			if deadExpr(c) {
				return true
			}
			if n, ok := c.(form.NotE); ok {
				neg[n.X.String()] = true
			} else {
				pos[c.String()] = true
			}
		}
		for s := range pos {
			if neg[s] {
				return true
			}
		}
		return false
	}
	return false
}
