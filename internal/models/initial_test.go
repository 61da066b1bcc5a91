package models

import (
	"fmt"
	"testing"

	"opentla/internal/form"
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

// TestInitialStatesMatchReference pins System.InitialStates to the
// map-per-assignment reference enumeration on every registry system: the
// same states in the same order, which fixes the numbering of every graph.
func TestInitialStatesMatchReference(t *testing.T) {
	for _, sys := range derivedSystems() {
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
