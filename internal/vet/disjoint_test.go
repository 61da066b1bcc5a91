package vet

import (
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/ts"
)

// pairSystem returns two single-output writer components.
func pairSystem() []*spec.Component {
	a := writer("a", []string{"x"}, nil, "x")
	b := writer("b", []string{"y"}, nil, "y")
	return []*spec.Component{a, b}
}

func disjointCons(tuples ...[]string) []ts.StepConstraint {
	var out []ts.StepConstraint
	for i, e := range form.DisjointSteps(tuples...) {
		out = append(out, ts.StepConstraint{Name: "disjoint", Action: e})
		_ = i
	}
	return out
}

func TestDisjointCoverage(t *testing.T) {
	t.Run("covered", func(t *testing.T) {
		res := Composition("sys", pairSystem(), disjointCons([]string{"x"}, []string{"y"}),
			Options{RequireDisjoint: true})
		if hasCode(res, "SV020") || hasCode(res, "SV021") {
			t.Errorf("covered pair flagged:\n%s", res)
		}
	})
	t.Run("missing-warn", func(t *testing.T) {
		res := Composition("sys", pairSystem(), nil, Options{RequireDisjoint: true})
		d := diag(t, res, "SV020")
		if d.Severity != Warn || d.Component != "sys" {
			t.Errorf("SV020 = %+v", d)
		}
	})
	t.Run("missing-info-when-not-required", func(t *testing.T) {
		res := Composition("sys", pairSystem(), nil, Options{})
		if d := diag(t, res, "SV020"); d.Severity != Info {
			t.Errorf("SV020 severity = %v, want info", d.Severity)
		}
	})
	t.Run("multi-var-tuples", func(t *testing.T) {
		a := writer("a", []string{"x1", "x2"}, nil, "x1", "x2")
		b := writer("b", []string{"y"}, nil, "y")
		cons := disjointCons([]string{"x1", "x2"}, []string{"y"})
		res := Composition("sys", []*spec.Component{a, b}, cons, Options{RequireDisjoint: true})
		if hasCode(res, "SV020") {
			t.Errorf("multi-var coverage missed:\n%s", res)
		}
	})
	t.Run("wrong-pair-not-credited", func(t *testing.T) {
		// A constraint interleaving x with z says nothing about (x, y).
		cons := disjointCons([]string{"x"}, []string{"z"})
		res := Composition("sys", pairSystem(), cons, Options{RequireDisjoint: true})
		diag(t, res, "SV020")
	})
	t.Run("unrecognized-constraint", func(t *testing.T) {
		cons := []ts.StepConstraint{{Name: "odd",
			Action: form.Gt(form.PrimedVar("x"), form.Var("x"))}}
		res := Composition("sys", pairSystem(), cons, Options{RequireDisjoint: true})
		if d := diag(t, res, "SV021"); d.Action != "odd" || d.Severity != Info {
			t.Errorf("SV021 = %+v", d)
		}
		// The unrecognized constraint earns no coverage credit.
		diag(t, res, "SV020")
	})
	t.Run("actionless-component-needs-no-coverage", func(t *testing.T) {
		comps := []*spec.Component{
			{Name: "obs", Outputs: []string{"z"}},
			writer("b", []string{"y"}, nil, "y"),
		}
		res := Composition("sys", comps, nil, Options{RequireDisjoint: true})
		if hasCode(res, "SV020") {
			t.Errorf("actionless pair flagged:\n%s", res)
		}
	})
}

// TestParseDisjoint: the coverage audit reads each DisjointSteps
// constraint as the blocks it lets move alone, and does not mistake an
// assignment for a stutter.
func TestParseDisjoint(t *testing.T) {
	steps := form.DisjointSteps([]string{"x1", "x2"}, []string{"y"})
	if len(steps) != 1 {
		t.Fatalf("DisjointSteps produced %d constraints", len(steps))
	}
	sets, ok := form.ParseDisjoint(steps[0])
	if !ok || len(sets) != 3 {
		t.Fatalf("ParseDisjoint: ok=%v sets=%v", ok, sets)
	}
	// The three disjuncts freeze x, y, and the combined tuple.
	if !subset([]string{"x1", "x2"}, sets[0]) || !subset([]string{"y"}, sets[1]) ||
		!subset([]string{"x1", "x2", "y"}, sets[2]) {
		t.Errorf("frozen sets = %v", sets)
	}
	if _, ok := form.ParseDisjoint(form.Eq(form.PrimedVar("x"), form.IntC(0))); ok {
		t.Error("assignment parsed as a Disjoint shape")
	}
}
