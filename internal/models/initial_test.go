package models

import (
	"fmt"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// referenceInitialStates enumerates the initial states of sys one map per
// assignment, in value.ForEachAssignment order over the sorted variables,
// keeping those satisfying every component's Init.
func referenceInitialStates(sys *ts.System) ([]*state.State, error) {
	var preds []form.Expr
	for _, c := range sys.Components {
		if c.Init != nil {
			preds = append(preds, c.Init)
		}
	}
	var out []*state.State
	var evalErr error
	value.ForEachAssignment(sys.Vars(), sys.Domains, func(a map[string]value.Value) bool {
		s := state.New(a)
		for _, p := range preds {
			ok, err := form.EvalStateBool(p, s)
			if err != nil {
				evalErr = fmt.Errorf("evaluating Init %s on %s: %w", p, s, err)
				return false
			}
			if !ok {
				return true
			}
		}
		out = append(out, s)
		return true
	})
	return out, evalErr
}

// initUnitSystems are small systems whose Inits the branch compiler does
// not solve in reference order, or leaves variables of unconstrained: a
// disjunctive Init with overlapping disjuncts, an ∃ over a domain listed
// out of order, and a variable no Init mentions.
func initUnitSystems() []*ts.System {
	a, b := form.Var("a"), form.Var("b")
	doms := map[string][]value.Value{"a": value.Ints(0, 2), "b": value.Ints(0, 2), "c": value.Bits()}
	unit := func(name string, init form.Expr, inputs ...string) *ts.System {
		return &ts.System{
			Name:       name,
			Components: []*spec.Component{{Name: name, Inputs: inputs, Outputs: []string{"a", "b"}, Init: init}},
			Domains:    doms,
		}
	}
	return []*ts.System{
		// Branches yield (2,0), (0,·), then b = 2: (1,2), (2,2); (0,2) again.
		unit("disjunctive-init", form.Or(
			form.And(form.Eq(a, form.IntC(2)), form.Eq(b, form.IntC(0))),
			form.Eq(a, form.IntC(0)),
			form.Eq(b, form.IntC(2)))),
		// v = 2 first: (2,0), (2,1), then (0,1), (0,2).
		unit("exists-init", form.Exists("v", []value.Value{value.Int(2), value.Int(0)},
			form.And(form.Eq(a, form.Var("v")), form.Ne(b, form.Var("v"))))),
		// c is an input no Init constrains; a and b are left to a residual.
		unit("unconstrained-var", form.Lt(b, a), "c"),
	}
}

// TestInitialStatesMatchReference pins System.InitialStates to the
// map-per-assignment reference enumeration on every registry system and on
// initUnitSystems: the same states in the same order, which fixes the
// numbering of every graph.
func TestInitialStatesMatchReference(t *testing.T) {
	for _, sys := range append(derivedSystems(), initUnitSystems()...) {
		t.Run(sys.Name, func(t *testing.T) {
			got, err := sys.InitialStates()
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceInitialStates(sys)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || len(got) != len(want) {
				t.Fatalf("%d initial states, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i].Key() != want[i].Key() {
					t.Fatalf("initial state %d is %s, reference %s", i, got[i], want[i])
				}
			}
		})
	}
}
