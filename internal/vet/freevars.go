package vet

import (
	"fmt"
	"strings"

	"opentla/internal/absint"
	"opentla/internal/form"
	"opentla/internal/spec"
)

// checkFreeVars implements the free-variable analyses:
//
//	SV001 — Init, an action, or a fairness condition mentions a variable
//	        the component never declared.
//	SV002 — an action constrains the next-state value of an input. Inputs
//	        belong to the environment (§2.2); a component that writes its
//	        own inputs is not in canonical form and the Composition
//	        Theorem's hypotheses cannot be discharged for it.
//	SV004 — Init contains primed variables (it must be a state predicate).
func checkFreeVars(res *Result, c *spec.Component) {
	declared := stringSet(c.Vars())
	inputs := stringSet(c.Inputs)

	if c.Init != nil {
		for _, v := range form.AllVars(c.Init) {
			if !declared[v] {
				res.add(Diagnostic{
					Code: "SV001", Severity: Error, Component: c.Name,
					Message: fmt.Sprintf("Init mentions undeclared variable %q", v),
					Hint:    fmt.Sprintf("declare %q as an input, output, or internal", v),
				})
			}
		}
		if prm := form.PrimedVars(c.Init); len(prm) > 0 {
			res.add(Diagnostic{
				Code: "SV004", Severity: Error, Component: c.Name,
				Message: fmt.Sprintf("Init primes variables %s; an initial predicate must be a state function", strings.Join(prm, ", ")),
				Hint:    "move next-state constraints into an action",
			})
		}
	}

	for _, a := range c.Actions {
		for _, v := range form.AllVars(a.Def) {
			if !declared[v] {
				res.add(Diagnostic{
					Code: "SV001", Severity: Error, Component: c.Name, Action: a.Name,
					Message: fmt.Sprintf("action mentions undeclared variable %q", v),
					Hint:    fmt.Sprintf("declare %q as an input, output, or internal", v),
				})
			}
		}
		for _, v := range absint.SortedVars(absint.Writes(a.Def)) {
			if inputs[v] {
				res.add(Diagnostic{
					Code: "SV002", Severity: Error, Component: c.Name, Action: a.Name,
					Message: fmt.Sprintf("action constrains the next-state value of input %q", v),
					Hint:    fmt.Sprintf("only the environment may change %q; make it an output or drop the constraint", v),
				})
			}
		}
	}
}
