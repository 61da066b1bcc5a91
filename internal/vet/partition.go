package vet

import (
	"fmt"

	"opentla/internal/absint"
	"opentla/internal/spec"
)

// checkPartition implements SV010: the Inputs/Outputs/Internals lists must
// partition the component's variables (§2.2). A doubly-declared variable
// makes "owned" ambiguous, so everything downstream — interleaving,
// hiding, the Composition Theorem hypotheses — is ill-defined.
// spec.Validate rejects the same defect at construction time with a
// *spec.DuplicateVarError; the diagnostic here reports it through the
// analyzer for components built without going through spec.New.
func checkPartition(res *Result, c *spec.Component) {
	seen := make(map[string]string)
	scan := func(class string, names []string) {
		for _, n := range names {
			if prev, dup := seen[n]; dup {
				msg := fmt.Sprintf("variable %q declared as both %s and %s", n, prev, class)
				if prev == class {
					msg = fmt.Sprintf("variable %q declared twice as %s", n, class)
				}
				res.add(Diagnostic{
					Code: "SV010", Severity: Error, Component: c.Name,
					Message: msg,
					Hint:    fmt.Sprintf("keep exactly one declaration of %q", n),
				})
				continue
			}
			seen[n] = class
		}
	}
	scan("input", c.Inputs)
	scan("output", c.Outputs)
	scan("internal", c.Internals)
}

// checkOwnership implements the composition-level partition checks:
//
//	SV011 — two components both own (output or internal) the same
//	        variable. The paper's composition E₁ ∧ E₂ only makes sense
//	        when the owned sets are pairwise disjoint: otherwise "only the
//	        owner changes it" names two owners.
//	SV003 — a component's action constrains the next-state value of a
//	        variable owned by a different component. Writes to the
//	        component's own inputs are reported as SV002 by the
//	        per-component pass and are not repeated here.
func checkOwnership(res *Result, comps []*spec.Component) {
	owner := make(map[string]string)
	for _, c := range comps {
		for _, v := range c.Owned() {
			if prev, taken := owner[v]; taken {
				res.add(Diagnostic{
					Code: "SV011", Severity: Error, Component: c.Name,
					Message: fmt.Sprintf("variable %q is already owned by component %s", v, prev),
					Hint:    fmt.Sprintf("make %q an input of one of the two components", v),
				})
				continue
			}
			owner[v] = c.Name
		}
	}
	for _, c := range comps {
		inputs := stringSet(c.Inputs)
		owned := stringSet(c.Owned())
		for _, a := range c.Actions {
			for _, v := range absint.SortedVars(absint.Writes(a.Def)) {
				if owned[v] || inputs[v] {
					continue
				}
				if by, ok := owner[v]; ok && by != c.Name {
					res.add(Diagnostic{
						Code: "SV003", Severity: Error, Component: c.Name, Action: a.Name,
						Message: fmt.Sprintf("action constrains %q, which is owned by component %s", v, by),
						Hint:    fmt.Sprintf("declare %q as an input of %s or route the write through %s", v, c.Name, by),
					})
				}
			}
		}
	}
}
