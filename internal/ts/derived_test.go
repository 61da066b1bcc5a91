package ts_test

import (
	"strings"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/ts/tstest"
	"opentla/internal/value"
)

// chooserSystem covers the shapes the successor compiler classifies: a
// guarded x' = e, a finite ∃ over a primed assignment, a residual primed
// constraint enumerated over its domain, a guard on a free variable, and two
// components whose candidates are derived independently.
func chooserSystem() *ts.System {
	pick := form.Exists("v", value.Ints(0, 2), form.And(
		form.Ne(form.Var("v"), form.Var("x")),
		form.Eq(form.PrimedVar("y"), form.Var("v"))))
	bump := form.And(
		form.Lt(form.Var("y"), form.IntC(2)),
		form.Eq(form.PrimedVar("y"), form.Add(form.Var("y"), form.IntC(1))))
	flip := form.And(
		form.Eq(form.Var("z"), form.IntC(1)),
		form.Ne(form.PrimedVar("x"), form.Var("x")))
	return &ts.System{
		Name: "chooser",
		Components: []*spec.Component{{
			Name:    "chooser",
			Inputs:  []string{"x"},
			Outputs: []string{"y"},
			Init:    form.Eq(form.Var("y"), form.IntC(0)),
			Actions: []spec.Action{{Name: "Pick", Def: pick}, {Name: "Bump", Def: bump}},
		}, {
			Name:    "flipper",
			Inputs:  []string{"z"},
			Outputs: []string{"x"},
			Init:    form.Eq(form.Var("x"), form.IntC(0)),
			Actions: []spec.Action{{Name: "Flip", Def: flip}},
		}},
		Domains: map[string][]value.Value{"x": value.Ints(0, 2), "y": value.Ints(0, 2), "z": value.Bits()},
	}
}

// TestDerivedUpdatesCheckPassesDerivedGenerator: the generator ts builds
// graphs with agrees with brute-force enumeration on every reachable state.
func TestDerivedUpdatesCheckPassesDerivedGenerator(t *testing.T) {
	if err := tstest.CheckDerivedUpdates(chooserSystem()); err != nil {
		t.Fatal(err)
	}
}

// TestDerivedUpdatesCheckCatchesIncompleteGenerator: the check is not
// vacuous. A generator that drops a candidate, or lists one twice, is
// reported with the action where it diverges.
func TestDerivedUpdatesCheckCatchesIncompleteGenerator(t *testing.T) {
	sys := chooserSystem()
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func([][]state.PosUpdate) [][]state.PosUpdate
	}{
		{"dropped-candidate", func(ups [][]state.PosUpdate) [][]state.PosUpdate {
			if len(ups) > 1 {
				return ups[:len(ups)-1]
			}
			return ups
		}},
		{"repeated-candidate", func(ups [][]state.PosUpdate) [][]state.PosUpdate {
			if len(ups) > 0 {
				return append(ups[:len(ups):len(ups)], ups[0])
			}
			return ups
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sabotaged := func(def form.Expr, layout, owned []string) (func(*state.State) ([][]state.PosUpdate, error), error) {
				updates, err := sys.Ctx().UpdatesFn(def, layout, owned)
				if err != nil {
					return nil, err
				}
				return func(s *state.State) ([][]state.PosUpdate, error) {
					ups, err := updates(s)
					return tc.edit(ups), err
				}, nil
			}
			err := tstest.CheckUpdates(sys, g, sabotaged)
			if err == nil || !strings.Contains(err.Error(), "chooser.Pick") {
				t.Fatalf("CheckUpdates = %v, want a divergence in chooser.Pick", err)
			}
		})
	}
}
