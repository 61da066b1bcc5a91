package vet

import (
	"fmt"
	"strings"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/ts"
)

// checkDisjointCoverage implements the Disjoint-hypothesis analyses:
//
//	SV020 — no step constraint forces the outputs of two components to
//	        change in separate steps. Proposition 4 reduces the
//	        conditional implementation E ∧ Disjoint(v1,…,vn) ⊆ M to an
//	        unconditional one only when the Disjoint hypothesis actually
//	        covers every pair; a missing pair silently weakens the
//	        theorem being checked. Severity is Warn when the caller
//	        requires interleaving (Options.RequireDisjoint), Info
//	        otherwise.
//	SV021 — a step constraint is not recognized as a Disjoint shape, so
//	        the coverage analysis cannot credit it.
//
// The recognized constraints cover pair (A, B) when together they exclude
// every step changing an output of A and an output of B
// (form.DisjointCovers). One constraint does when every one of its
// disjuncts freezes all of A's outputs or all of B's outputs — exactly the
// shape produced by form.DisjointSteps: [(vi'=vi) ∨ (vj'=vj)]_⟨vi,vj⟩,
// whose three disjuncts freeze vi, vj, and ⟨vi,vj⟩ respectively.
// Components with no actions or no outputs need no interleaving and are
// skipped.
func checkDisjointCoverage(res *Result, name string, comps []*spec.Component, cons []ts.StepConstraint, opt Options) {
	var recognized [][]map[string]bool
	for _, con := range cons {
		sets, ok := form.ParseDisjoint(con.Action)
		if !ok {
			res.add(Diagnostic{
				Code: "SV021", Severity: Info, Component: name, Action: con.Name,
				Message: "step constraint is not a recognized Disjoint shape; it is ignored by the coverage analysis",
				Hint:    "build interleaving constraints with form.DisjointSteps",
			})
			continue
		}
		recognized = append(recognized, sets)
	}

	sev := Info
	if opt.RequireDisjoint {
		sev = Warn
	}
	for i, a := range comps {
		if len(a.Actions) == 0 || len(a.Outputs) == 0 {
			continue
		}
		for _, b := range comps[i+1:] {
			if len(b.Actions) == 0 || len(b.Outputs) == 0 {
				continue
			}
			if form.DisjointCovers(recognized, a.Outputs, b.Outputs) {
				continue
			}
			res.add(Diagnostic{
				Code: "SV020", Severity: sev, Component: name,
				Message: fmt.Sprintf("no Disjoint constraint separates the outputs of %s (%s) and %s (%s)",
					a.Name, strings.Join(a.Outputs, ","), b.Name, strings.Join(b.Outputs, ",")),
				Hint: fmt.Sprintf("add form.DisjointSteps for the pair (%s, %s) or accept simultaneous steps", a.Name, b.Name),
			})
		}
	}
}
