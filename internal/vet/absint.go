package vet

import (
	"fmt"
	"sort"
	"strings"

	"opentla/internal/absint"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/ts"
)

// checkSemantic runs the abstract-interpretation pass (SV100–SV1xx) over a
// composition. Unlike the syntactic checks, which trust the declared
// partition and domains, this pass derives its facts from the action
// definitions themselves: per-variable reachable-domain
// over-approximations, per-action write sets, guard satisfiability, and a
// state-space cardinality upper bound (attached to the Result as Bound).
//
// The pass activates when the caller declares variable domains, so minimal
// unit-test compositions without domains are not flooded with finiteness
// findings.
func checkSemantic(res *Result, name string, comps []*spec.Component, cons []ts.StepConstraint, opt Options) {
	if len(opt.Domains) == 0 {
		return
	}
	consExprs := make([]form.Expr, len(cons))
	for i, c := range cons {
		consExprs[i] = c.Action
	}
	a := absint.Analyze(comps, consExprs, absint.Options{Declared: opt.Domains})
	checkFinite(res, name, comps, a)
	checkDomainEscape(res, a)
	checkHiddenInterface(res, comps)
	checkDisjointRefuted(res, name, comps, cons, a)
	checkNeverEnabled(res, a)
	res.Bound = a.Bound()
}

// checkFinite implements SV100: a variable whose reachable value set
// cannot be proven finite. The explicit-state checker cannot terminate on
// such a system, and no state-space bound exists; either a declared domain
// or a bounding guard is missing.
func checkFinite(res *Result, name string, comps []*spec.Component, a *absint.Analysis) {
	owner := map[string]string{}
	for _, c := range comps {
		for _, v := range c.Owned() {
			owner[v] = c.Name
		}
	}
	for _, v := range a.Names {
		if _, fin := a.VarDom(v).Card(); fin {
			continue
		}
		comp := owner[v]
		if comp == "" {
			comp = name
		}
		res.add(Diagnostic{
			Code: "SV100", Severity: Error, Component: comp,
			Message: fmt.Sprintf("variable %q is not provably finite: inferred domain %s", v, a.VarDom(v)),
			Hint:    fmt.Sprintf("declare a finite domain for %q or guard the actions that grow it", v),
		})
	}
}

// checkDomainEscape implements SV101: an action's inferred write for a
// variable is entirely disjoint from the variable's declared domain, so
// every step of the action leaves the domain the rest of the toolchain
// assumes. (A partial overlap is not flagged — the abstraction
// over-approximates, so only full disjointness is a proof.)
func checkDomainEscape(res *Result, a *absint.Analysis) {
	for _, f := range a.Actions {
		if f.Enabled == absint.False {
			continue // never steps, nothing escapes
		}
		for _, v := range absint.SortedVars(f.Writes) {
			post, ok := f.Post[v]
			if !ok || post.IsBot() {
				continue
			}
			decl := a.DeclaredDom[v]
			if decl == nil || decl.IsTop() {
				continue
			}
			if absint.Meet(post, decl).IsBot() {
				res.add(Diagnostic{
					Code: "SV101", Severity: Warn, Component: f.Component, Action: f.Action,
					Message: fmt.Sprintf("inferred write %s to %q is disjoint from its declared domain", post, v),
					Hint:    fmt.Sprintf("widen the declared domain of %q or fix the assignment", v),
				})
			}
		}
	}
}

// checkHiddenInterface implements SV120: a component declares as input a
// variable that is internal to another component. Internal variables are
// hidden by the existential quantifier of the canonical form (§2.2), so
// they cannot cross a composition interface; a name collision here means
// the composition silently couples two components through a variable the
// paper's theorems treat as private.
func checkHiddenInterface(res *Result, comps []*spec.Component) {
	for _, b := range comps {
		if len(b.Internals) == 0 {
			continue
		}
		internals := stringSet(b.Internals)
		for _, c := range comps {
			if c.Name == b.Name {
				continue
			}
			for _, v := range c.Inputs {
				if internals[v] {
					res.add(Diagnostic{
						Code: "SV120", Severity: Error, Component: c.Name,
						Message: fmt.Sprintf("input %q is an internal variable of component %s; internals are hidden by ∃x and cannot cross the interface", v, b.Name),
						Hint:    fmt.Sprintf("expose %q as an output of %s or drop the input declaration", v, b.Name),
					})
				}
			}
		}
	}
}

// checkDisjointRefuted implements SV111: the declared Disjoint coverage of
// a component pair is refuted by the inferred write sets. SV020 proves
// coverage from the declared outputs; this check re-proves it from what
// the actions actually write. A pair whose declared coverage holds but
// whose inferred coverage fails has declared-but-wrong ownership — exactly
// the situation in which Proposition 4 would be applied unsoundly.
func checkDisjointRefuted(res *Result, name string, comps []*spec.Component, cons []ts.StepConstraint, a *absint.Analysis) {
	var recognized [][]map[string]bool
	for _, con := range cons {
		if sets, ok := form.ParseDisjoint(con.Action); ok {
			recognized = append(recognized, sets)
		}
	}
	if len(recognized) == 0 {
		return
	}
	// External inferred writes: what the component's actions change,
	// minus its internals (Disjoint speaks about visible variables).
	ext := func(c *spec.Component) []string {
		internals := stringSet(c.Internals)
		var out []string
		for v := range a.ComponentWrites(c.Name) {
			if !internals[v] {
				out = append(out, v)
			}
		}
		sort.Strings(out)
		return out
	}
	for i, ca := range comps {
		if len(ca.Actions) == 0 || len(ca.Outputs) == 0 {
			continue
		}
		for _, cb := range comps[i+1:] {
			if len(cb.Actions) == 0 || len(cb.Outputs) == 0 {
				continue
			}
			if !form.DisjointCovers(recognized, ca.Outputs, cb.Outputs) {
				continue // no declared coverage to refute; SV020 reports it
			}
			extA, extB := ext(ca), ext(cb)
			if form.DisjointCovers(recognized, extA, extB) {
				continue
			}
			res.add(Diagnostic{
				Code: "SV111", Severity: Error, Component: name,
				Message: fmt.Sprintf("Disjoint coverage of (%s, %s) is refuted: declared outputs are interleaved, but the inferred write-sets (%s | %s) are not frozen by any covering constraint",
					ca.Name, cb.Name, strings.Join(extA, ","), strings.Join(extB, ",")),
				Hint: "make the components write only their declared outputs, or extend the Disjoint tuples to the variables actually written",
			})
		}
	}
}

// checkNeverEnabled implements SV130: an action whose guard is provably
// unsatisfiable under the inferred reachable domains. This subsumes the
// syntactic SV050 with domain reasoning: the guard may be perfectly
// satisfiable in isolation and still unreachable in every run.
func checkNeverEnabled(res *Result, a *absint.Analysis) {
	for _, f := range a.Actions {
		if f.Enabled != absint.False {
			continue
		}
		res.add(Diagnostic{
			Code: "SV130", Severity: Warn, Component: f.Component, Action: f.Action,
			Message: "action is provably never enabled under the inferred reachable domains",
			Hint:    "remove the action or fix the guard; the next-state relation silently loses this disjunct",
		})
	}
}

// Pair checks one assumption/guarantee pair's interface (Composition
// Theorem compatibility, §5): every input the guarantee component Sys
// reads must be driven by an output of its assumption Env, or the
// assumption says nothing about a wire the guarantee depends on (SV121).
// Like the rest of the semantic pass it activates only when domains are
// declared. Nil env or sys (TRUE assumptions, constraint-only guarantees)
// check nothing.
func Pair(name string, env, sys *spec.Component, opt Options) *Result {
	res := &Result{}
	if env == nil || sys == nil || len(opt.Domains) == 0 {
		return res
	}
	outputs := stringSet(env.Outputs)
	for _, v := range sys.Inputs {
		if outputs[v] {
			continue
		}
		res.add(Diagnostic{
			Code: "SV121", Severity: Warn, Component: sys.Name, Action: "",
			Message: fmt.Sprintf("pair %s: input %q of guarantee %s is not an output of its assumption %s", name, v, sys.Name, env.Name),
			Hint:    fmt.Sprintf("add %q to %s's outputs or drop the dangling input", v, env.Name),
		})
	}
	return res
}
