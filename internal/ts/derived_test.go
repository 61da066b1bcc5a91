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
// vacuous. A generator that drops a candidate, lists one twice, or invents
// one its Def forbids is reported with the action where it diverges. A
// build rejects an invented candidate only by re-checking Def on the merged
// step; the oracle reports it by name.
func TestDerivedUpdatesCheckCatchesIncompleteGenerator(t *testing.T) {
	sys := chooserSystem()
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*state.State, [][]state.PosUpdate) [][]state.PosUpdate
	}{
		{"dropped-candidate", func(_ *state.State, ups [][]state.PosUpdate) [][]state.PosUpdate {
			if len(ups) > 1 {
				return ups[:len(ups)-1]
			}
			return ups
		}},
		{"repeated-candidate", func(_ *state.State, ups [][]state.PosUpdate) [][]state.PosUpdate {
			if len(ups) > 0 {
				return append(ups[:len(ups):len(ups)], ups[0])
			}
			return ups
		}},
		// y' = x is within y's domain, and Pick (∃v : v ≠ x ∧ y' = v)
		// forbids it on every state.
		{"invented-candidate", func(s *state.State, ups [][]state.PosUpdate) [][]state.PosUpdate {
			y, _ := s.PosOf("y")
			return append(ups[:len(ups):len(ups)], []state.PosUpdate{{Pos: y, Val: s.MustGet("x")}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sabotaged := func(def form.Expr, layout, owned []string) (func(*state.State, *form.Updates) error, error) {
				updates, err := sys.Ctx().UpdatesFn(def, layout, owned)
				if err != nil {
					return nil, err
				}
				return func(s *state.State, u *form.Updates) error {
					err := updates(s, u)
					u.Cands = tc.edit(s, u.Cands)
					return err
				}, nil
			}
			err := tstest.CheckUpdates(sys, g, sabotaged)
			if err == nil || !strings.Contains(err.Error(), "chooser.Pick") {
				t.Fatalf("CheckUpdates = %v, want a divergence in chooser.Pick", err)
			}
		})
	}
}

// TestBruteSuccessorsMatchSuccessors holds Successors to the whole-step
// brute-force oracle on this package's test systems: on every reachable
// state, the same successors, none listed twice.
func TestBruteSuccessorsMatchSuccessors(t *testing.T) {
	for _, sys := range append(ts.UnitSystems(), chooserSystem(), rejectedFirstSystem(), freePrimedSystem(), freeSkipSystem(), constraintsOnlySystem()) {
		t.Run(sys.Name, func(t *testing.T) {
			if err := tstest.CheckSuccessors(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// freePrimedSystem primes its free variable y (owned by no component) in
// an action's Def and in a step constraint, whose verdicts therefore change
// with y's assignment and must not be cached per choice combination.
func freePrimedSystem() *ts.System {
	return &ts.System{
		Name: "free-primed",
		Components: []*spec.Component{{
			Name:    "setter",
			Inputs:  []string{"y"},
			Outputs: []string{"x"},
			Init:    form.Eq(form.Var("x"), form.IntC(0)),
			Actions: []spec.Action{{Name: "Set", Def: form.And(
				form.Eq(form.PrimedVar("x"), form.Sub(form.IntC(1), form.Var("x"))),
				form.Unchanged("y"))}},
		}},
		Constraints: []ts.StepConstraint{{Name: "y-grows", Action: form.Ge(form.PrimedVar("y"), form.Var("y"))}},
		Domains:     map[string][]value.Value{"x": value.Bits(), "y": value.Ints(0, 2)},
	}
}

// rejectedFirstSystem has two choice combinations that build the same
// successor, the first rejected by its Def on the merged step: writer's
// Bad (x' = 1 ∧ y' = y) joined with flipper's Flip, then Good (x' = 1)
// joined with Flip. Combinations enumerate with the first component
// fastest, so Other's distinct successor comes between the two.
func rejectedFirstSystem() *ts.System {
	x1 := form.Eq(form.PrimedVar("x"), form.IntC(1))
	return &ts.System{
		Name: "rejected-first",
		Components: []*spec.Component{{
			Name:    "writer",
			Inputs:  []string{"y"},
			Outputs: []string{"x"},
			Init:    form.Eq(form.Var("x"), form.IntC(0)),
			Actions: []spec.Action{
				{Name: "Bad", Def: form.And(x1, form.Unchanged("y"))},
				{Name: "Other", Def: form.Eq(form.PrimedVar("x"), form.IntC(2))},
				{Name: "Good", Def: x1},
			},
		}, {
			Name:    "flipper",
			Outputs: []string{"y"},
			Init:    form.Eq(form.Var("y"), form.IntC(0)),
			Actions: []spec.Action{{Name: "Flip", Def: form.Eq(form.PrimedVar("y"), form.Sub(form.IntC(1), form.Var("y")))}},
		}},
		Domains: map[string][]value.Value{"x": value.Ints(0, 2), "y": value.Bits()},
	}
}

// TestSuccessorEmittedAtFirstValidCombination: a successor that a rejected
// combination builds first is emitted once, where the combination that
// passes its Def builds it, and a successor two valid combinations build is
// emitted once, at the first.
func TestSuccessorEmittedAtFirstValidCombination(t *testing.T) {
	sys := rejectedFirstSystem()
	inits, err := sys.InitialStates()
	if err != nil || len(inits) != 1 {
		t.Fatalf("initial states %v, %v", inits, err)
	}
	succs, err := sys.Successors(inits[0])
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range succs {
		got = append(got, s.String())
	}
	// (st,st) (Bad,st) (Other,st) [(Good,st): again x=1 y=0] (st,Flip)
	// [(Bad,Flip): rejected] (Other,Flip) (Good,Flip).
	want := []string{"[x=0 y=0]", "[x=1 y=0]", "[x=2 y=0]", "[x=0 y=1]", "[x=2 y=1]", "[x=1 y=1]"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("successors %v, want %v", got, want)
	}
}

// TestDefRecheckKeepsForeignPrimes: a merged step is re-checked against
// every conjunct of Def, those that prime a variable the component does
// not own included. Move asserts z' = z, z owned by another
// component, and w' = w, w owned by none; merging Move with Bump's change
// to z, or with any change to w, must be rejected, as brute force does.
func TestDefRecheckKeepsForeignPrimes(t *testing.T) {
	sys := &ts.System{
		Name: "foreign-primes",
		Components: []*spec.Component{{
			Name:    "mover",
			Inputs:  []string{"w", "z"},
			Outputs: []string{"x"},
			Init:    form.And(form.Eq(form.Var("x"), form.IntC(0)), form.Eq(form.Var("w"), form.IntC(0))),
			Actions: []spec.Action{{Name: "Move", Def: form.And(
				form.Eq(form.PrimedVar("x"), form.Sub(form.IntC(1), form.Var("x"))),
				form.Unchanged("z"),
				form.Unchanged("w"))}},
		}, {
			Name:    "zed",
			Outputs: []string{"z"},
			Init:    form.Eq(form.Var("z"), form.IntC(0)),
			Actions: []spec.Action{{Name: "Bump", Def: form.Eq(form.PrimedVar("z"), form.Sub(form.IntC(1), form.Var("z")))}},
		}},
		Domains: map[string][]value.Value{"w": value.Bits(), "x": value.Bits(), "z": value.Bits()},
	}
	if err := tstest.CheckSuccessors(sys); err != nil {
		t.Fatal(err)
	}
	inits, err := sys.InitialStates()
	if err != nil || len(inits) != 1 {
		t.Fatalf("initial states %v, %v", inits, err)
	}
	succs, err := sys.Successors(inits[0])
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range succs {
		got = append(got, s.String())
	}
	// Move alone; Bump and stutters under each w. Move with Bump or with a
	// change to w is rejected.
	want := []string{"[w=0 x=0 z=0]", "[w=0 x=1 z=0]", "[w=0 x=0 z=1]", "[w=1 x=0 z=0]", "[w=1 x=0 z=1]"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("successors %v, want %v", got, want)
	}
}

// TestDefRecheckKeepsEvaluationErrors: a Def that fails to evaluate on a
// candidate's step fails the build, even where the lenient generator still
// proposes the candidate from a later disjunct. In the first Def the failing disjunct is a guard the
// generator rejects on the state; in the second it is a primed conjunct the
// generator only evaluates on its own disjunct's candidate x' = 1, never on
// x' = 2.
func TestDefRecheckKeepsEvaluationErrors(t *testing.T) {
	x, q := form.PrimedVar("x"), form.Var("q")
	for _, tc := range []struct {
		name string
		def  form.Expr
	}{
		{"failing-guard", form.Or(
			form.And(form.Eq(form.Head(q), form.IntC(1)), form.Eq(x, form.IntC(1))),
			form.Eq(x, form.IntC(2)))},
		{"failing-primed-conjunct", form.Or(
			form.And(
				form.Eq(form.Head(form.If(form.Eq(x, form.IntC(1)), form.TupleOf(form.IntC(1)), form.TupleOf())), form.IntC(1)),
				form.Eq(x, form.IntC(1))),
			form.Eq(x, form.IntC(2)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := &ts.System{
				Name: "partial",
				Components: []*spec.Component{{
					Name:    "setter",
					Inputs:  []string{"q"},
					Outputs: []string{"x"},
					Init:    form.Eq(form.Var("x"), form.IntC(0)),
					Actions: []spec.Action{{Name: "Set", Def: tc.def}},
				}, {
					Name:    "holder",
					Outputs: []string{"q"},
					Init:    form.Eq(q, form.TupleOf()),
				}},
				Domains: map[string][]value.Value{"x": value.Ints(0, 2), "q": {value.Tuple()}},
			}
			_, err := sys.Build()
			if err == nil || !strings.Contains(err.Error(), "action Set") || !strings.Contains(err.Error(), "Head") {
				t.Fatalf("Build: %v, want the evaluation error of Set's Def", err)
			}
		})
	}
}

// freeSkipSystem has a choice combination that fails its free-independent
// check: Move asserts z' = z and primes no free variable, so merging it with
// Bump's change to z fails under w = 0 and must stay rejected under w = 1,
// where it is not re-checked.
func freeSkipSystem() *ts.System {
	return &ts.System{
		Name: "free-skip",
		Components: []*spec.Component{{
			Name:    "mover",
			Inputs:  []string{"w", "z"},
			Outputs: []string{"x"},
			Init:    form.And(form.Eq(form.Var("x"), form.IntC(0)), form.Eq(form.Var("w"), form.IntC(0))),
			Actions: []spec.Action{{Name: "Move", Def: form.And(
				form.Eq(form.PrimedVar("x"), form.Sub(form.IntC(1), form.Var("x"))),
				form.Unchanged("z"))}},
		}, {
			Name:    "zed",
			Outputs: []string{"z"},
			Init:    form.Eq(form.Var("z"), form.IntC(0)),
			Actions: []spec.Action{{Name: "Bump", Def: form.Eq(form.PrimedVar("z"), form.Sub(form.IntC(1), form.Var("z")))}},
		}},
		Domains: map[string][]value.Value{"w": value.Bits(), "x": value.Bits(), "z": value.Bits()},
	}
}

// constraintsOnlySystem is step constraints alone: its one choice
// combination is the empty one, which must be visited under every free
// assignment.
func constraintsOnlySystem() *ts.System {
	return &ts.System{
		Name:        "constraints-only",
		Constraints: []ts.StepConstraint{{Name: "up", Action: form.Le(form.Var("w"), form.PrimedVar("w"))}},
		Domains:     map[string][]value.Value{"w": value.Ints(0, 2)},
	}
}
