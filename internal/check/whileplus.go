package check

import (
	"fmt"

	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/spec"
	"opentla/internal/ts"
)

// WhilePlus checks that every fair behavior of the graph satisfies
// E ⊳ M (§3), where env and sys are the assumption and guarantee as
// canonical components and mapping discharges sys's internal variables as
// Component's does.
//
// It checks sys, as Component does, on the product of the graph with the
// monitor of C(E)+v (§4.1), v the tuple of all the graph's variables: the
// behaviors in which E held for a prefix of n states, after which one more
// step was taken and every variable froze.
//
//  1. Safety: C(M) holds on every such behavior, that is, M holds for the
//     first n+1 states whenever E holds for the first n, for every n ≥ 0
//     (so M's initial predicate holds unconditionally).
//  2. Liveness: every fair behavior on which the monitor stays alive, that
//     is, on which C(E) holds forever, and which satisfies E's own
//     fairness, satisfies M's fairness. A dead +v monitor stays dead, so
//     each strongly connected component of the product is wholly alive or
//     wholly dead, and a counterexample is a fair lasso whose cycle hits an
//     alive state and meets each WF/SF of E.
//
// The fairness assumed is the graph system's and E's.
func WhilePlus(g *ts.Graph, env, sys *spec.Component, mapping map[string]form.Expr) (*SpecResult, error) {
	defer obs.FromMeter(g.Meter()).Span("check:while-plus")()
	prod, err := ts.PlusProduct(g, env.Init, []form.Expr{env.SquareExpr()}, form.VarTuple(g.Sys.Vars()...))
	if err != nil {
		return nil, err
	}
	conds := []CycleCond{{Name: "hits alive state", Buchi: true, HitState: func(id int) bool {
		b, _ := prod.States[id].MustGet(ts.PlusVar).AsBool()
		return b
	}, From: form.Pred(form.Var(ts.PlusVar))}}
	errs := new(error)
	conds = componentFairness(prod, env, conds, errs)
	res, err := component(prod, sys, mapping, conds)
	if err == nil && *errs != nil {
		return nil, fmt.Errorf("component %s fairness: %w", env.Name, *errs)
	}
	return res, err
}
