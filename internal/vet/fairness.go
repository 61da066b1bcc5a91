package vet

import (
	"fmt"
	"strings"

	"opentla/internal/absint"
	"opentla/internal/form"
	"opentla/internal/spec"
)

// checkFairness validates the liveness part L — the WF_v(A)/SF_v(A)
// conjuncts of the canonical form (§2.2):
//
//	SV001 — the fair action mentions an undeclared variable.
//	SV030 — the subscript v contains primed variables; a subscript must be
//	        a state function, otherwise ⟨A⟩_v is not an action.
//	SV031 — the subscript mentions undeclared variables.
//	SV032 — the fair action constrains a non-owned variable. Fairness may
//	        only be asserted about steps the component itself takes; a
//	        fair action writing inputs smuggles an environment assumption
//	        into L and breaks the E ⊳ M decomposition.
//	SV033 — the subscript contains no owned variable, so ⟨A⟩_v can never
//	        distinguish the component's steps from the environment's.
//	SV034 — the subscript mixes inputs with owned variables. This is
//	        legal (the paper's queue QM subscripts ⟨i,o,q⟩, Fig. 6) but
//	        worth surfacing: an input change alone can satisfy ⟨A⟩_v.
func checkFairness(res *Result, c *spec.Component) {
	declared := stringSet(c.Vars())
	owned := stringSet(c.Owned())
	inputs := stringSet(c.Inputs)

	for i, f := range c.Fairness {
		loc := fairLoc(f.Kind, i)
		for _, v := range form.AllVars(f.Action) {
			if !declared[v] {
				res.add(Diagnostic{
					Code: "SV001", Severity: Error, Component: c.Name, Action: loc,
					Message: fmt.Sprintf("fairness action mentions undeclared variable %q", v),
					Hint:    fmt.Sprintf("declare %q as an input, output, or internal", v),
				})
			}
		}
		for _, v := range absint.SortedVars(absint.Writes(f.Action)) {
			if !owned[v] {
				res.add(Diagnostic{
					Code: "SV032", Severity: Error, Component: c.Name, Action: loc,
					Message: fmt.Sprintf("fairness action constrains non-owned variable %q", v),
					Hint:    "assert fairness only for actions over the component's own outputs and internals",
				})
			}
		}
		if f.Sub == nil {
			// The canonical ⟨outputs, internals⟩ subscript is always valid.
			continue
		}
		if prm := form.PrimedVars(f.Sub); len(prm) > 0 {
			res.add(Diagnostic{
				Code: "SV030", Severity: Error, Component: c.Name, Action: loc,
				Message: fmt.Sprintf("fairness subscript primes variables %s; a subscript must be a state function", strings.Join(prm, ", ")),
				Hint:    "remove the primes from the subscript",
			})
		}
		subVars := form.AllVars(f.Sub)
		hasOwned, hasInput := false, false
		for _, v := range subVars {
			if !declared[v] {
				res.add(Diagnostic{
					Code: "SV031", Severity: Error, Component: c.Name, Action: loc,
					Message: fmt.Sprintf("fairness subscript mentions undeclared variable %q", v),
					Hint:    fmt.Sprintf("declare %q or drop it from the subscript", v),
				})
			}
			if owned[v] {
				hasOwned = true
			}
			if inputs[v] {
				hasInput = true
			}
		}
		if !hasOwned {
			res.add(Diagnostic{
				Code: "SV033", Severity: Warn, Component: c.Name, Action: loc,
				Message: "fairness subscript contains no owned variable, so it cannot witness the component's own steps",
				Hint:    "subscript the fairness condition with the component's outputs or internals",
			})
		} else if hasInput {
			res.add(Diagnostic{
				Code: "SV034", Severity: Info, Component: c.Name, Action: loc,
				Message: "fairness subscript mixes inputs with owned variables; an input change alone satisfies the angle-action",
				Hint:    "this matches the paper's queue specification (Fig. 6) but restricts L less than the canonical subscript",
			})
		}
	}
}

// fairLoc labels the i-th fairness conjunct for diagnostics, e.g. "WF[0]".
func fairLoc(k form.FairKind, i int) string {
	kind := "WF"
	if k == form.Strong {
		kind = "SF"
	}
	return fmt.Sprintf("%s[%d]", kind, i)
}
