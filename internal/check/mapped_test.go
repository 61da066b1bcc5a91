package check

import (
	"strings"
	"testing"

	"opentla/internal/form"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// failingAt maps to e, except on states satisfying at, where it fails to
// evaluate (Head of the empty sequence).
func failingAt(at, e form.Expr) form.Expr {
	return form.If(at, form.Head(form.EmptySeq), e)
}

// buildGraph builds a one-component system over x, y.
func buildGraph(t *testing.T, c *spec.Component, dom []value.Value, rd *reduce.Config) *ts.Graph {
	t.Helper()
	sys := &ts.System{
		Name:       c.Name,
		Components: []*spec.Component{c},
		Domains:    map[string][]value.Value{"x": dom, "y": dom},
		Reduce:     rd,
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pairGraph builds x, y ∈ 0..2, each incremented on its own up to 2.
func pairGraph(t *testing.T) *ts.Graph {
	t.Helper()
	inc := func(v, other string) spec.Action {
		return spec.Action{Name: "Inc" + v, Def: form.And(
			form.Lt(form.Var(v), form.IntC(2)),
			form.Eq(form.PrimedVar(v), form.Add(form.Var(v), form.IntC(1))),
			form.Unchanged(other),
		)}
	}
	return buildGraph(t, &spec.Component{
		Name:    "pair",
		Outputs: []string{"x", "y"},
		Init:    form.And(form.Eq(form.Var("x"), form.IntC(0)), form.Eq(form.Var("y"), form.IntC(0))),
		Actions: []spec.Action{inc("x", "y"), inc("y", "x")},
	}, value.Ints(0, 2), nil)
}

// copyGraph builds x, y ∈ 0..2, both 0 at first: x is set once to a data
// value 1 or 2, then y copies it. Reduced under the symmetry swapping the
// data values 1 and 2, (2, 0) is only the real successor of (0, 0) on the
// edge to its representative (1, 0).
func copyGraph(t *testing.T) *ts.Graph {
	t.Helper()
	x, y, zero := form.Var("x"), form.Var("y"), form.IntC(0)
	data := value.Ints(1, 2)
	return buildGraph(t, &spec.Component{
		Name:    "copy",
		Outputs: []string{"x", "y"},
		Init:    form.And(form.Eq(x, zero), form.Eq(y, zero)),
		Actions: []spec.Action{
			{Name: "Set", Def: form.And(form.Eq(x, zero),
				form.Exists("d", data, form.Eq(form.PrimedVar("x"), form.Var("d"))), form.Unchanged("y"))},
			{Name: "Copy", Def: form.And(form.Ne(x, zero), form.Eq(y, zero),
				form.Eq(form.PrimedVar("y"), x), form.Unchanged("x"))},
		},
	}, value.Ints(0, 2), &reduce.Config{Options: reduce.Options{Sym: true},
		Symmetry: &reduce.Symmetry{Values: data, Vars: []string{"x", "y"}}})
}

// TestSafetyUnderMappingFailsOnSomeStates: where a mapped value fails to
// evaluate, the state and its steps are checked as F̄ on the concrete
// states, so F̄'s short-circuits hold and its errors are reported.
func TestSafetyUnderMappingFailsOnSomeStates(t *testing.T) {
	g := ringGraph(t, 3, false)
	x, y := form.Var("x"), form.Var("y")
	at2 := form.Eq(x, form.IntC(2))
	mapping := map[string]form.Expr{"y": failingAt(at2, form.Add(x, form.IntC(10)))}
	for _, tc := range []struct {
		name  string
		f     form.Formula
		holds bool // meaningless when fails
		fails bool
	}{
		{"init", form.Pred(form.Eq(y, form.IntC(10))), true, false},
		{"guarded-invariant", form.AlwaysPred(form.Or(at2, form.Lt(y, form.IntC(13)))), true, false},
		{"violated-invariant", form.AlwaysPred(form.Or(at2, form.Lt(y, form.IntC(11)))), false, false},
		{"failing-invariant", form.AlwaysPred(form.Lt(y, form.IntC(13))), false, true},
		{"guarded-box", form.ActBoxVars(form.Or(at2, form.Eq(form.PrimedVar("x"), form.IntC(2)),
			form.Gt(form.PrimedVar("y"), y)), "x"), true, false},
		{"failing-box", form.ActBoxVars(form.Gt(form.PrimedVar("y"), y), "x"), false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := SameAsReference(t, g, tc.f, mapping)
			if (res == nil) != tc.fails || res != nil && res.Holds != tc.holds {
				t.Fatalf("result %v, want holds=%v fails=%v", res, tc.holds, tc.fails)
			}
		})
	}
}

// TestSafetyUnderMappedConcreteName: a mapped name that is also a concrete
// variable reads its mapped value, in every state of a step.
func TestSafetyUnderMappedConcreteName(t *testing.T) {
	x, y := form.Var("x"), form.Var("y")
	swap := map[string]form.Expr{"x": y, "y": x}
	g := pairGraph(t)
	shift := map[string]form.Expr{"x": form.Add(x, form.IntC(1))}
	for _, tc := range []struct {
		name    string
		f       form.Formula
		mapping map[string]form.Expr
		holds   bool
	}{
		{"swap-box", form.ActBoxF{A: form.And(form.Eq(form.PrimedVar("x"), form.Add(x, form.IntC(1))), form.Unchanged("y")), Sub: x}, swap, true},
		{"swap-box-violated", form.ActBoxVars(form.Eq(form.PrimedVar("x"), form.Add(x, form.IntC(1))), "x", "y"), swap, false},
		{"shift-init", form.Pred(form.And(form.Eq(x, form.IntC(1)), form.Eq(y, form.IntC(0)))), shift, true},
		{"shift-invariant", form.AlwaysPred(form.Lt(x, form.IntC(3))), shift, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if res := SameAsReference(t, g, tc.f, tc.mapping); res == nil || res.Holds != tc.holds {
				t.Fatalf("result %v, want holds=%v", res, tc.holds)
			}
		})
	}
}

// TestSafetyUnderReducedEdges: on a symmetry-reduced graph an edge's real
// successor need not be its target's representative; its image is computed
// from the real state, including where the mapping fails on it.
func TestSafetyUnderReducedEdges(t *testing.T) {
	g := copyGraph(t)
	offRep := 0
	forEachStep(g, func(_, to int, real *state.State) bool {
		if real != g.States[to] {
			offRep++
		}
		return true
	})
	if offRep == 0 {
		t.Fatal("no edge of the reduced graph leaves its representative")
	}
	x, y := form.Var("x"), form.Var("y")
	// (2, 0) is not a representative, only the real successor of (0, 0).
	at20 := form.And(form.Eq(x, form.IntC(2)), form.Eq(y, form.IntC(0)))
	if g.ID(state.FromPairs("x", value.Int(2), "y", value.Int(0))) >= 0 {
		t.Fatal("(2, 0) is a representative")
	}
	for _, tc := range []struct {
		name    string
		f       form.Formula
		mapping map[string]form.Expr
		holds   bool
		fails   bool
	}{
		{"sum-box", form.ActBoxVars(form.Ge(form.PrimedVar("s"), form.Var("s")), "s"),
			map[string]form.Expr{"s": form.Add(x, y)}, true, false},
		{"real-box", form.ActBoxVars(form.Ge(form.PrimedVar("d"), form.Var("d")), "d"),
			map[string]form.Expr{"d": x}, true, false},
		{"real-box-violated", form.ActBoxVars(form.Le(form.PrimedVar("d"), form.IntC(1)), "d"),
			map[string]form.Expr{"d": x}, false, false},
		{"failing-real", form.ActBoxVars(form.Ge(form.PrimedVar("d"), form.Var("d")), "d"),
			map[string]form.Expr{"d": failingAt(at20, x)}, false, true},
		{"guarded-real", form.ActBoxVars(form.Or(form.Eq(form.PrimedVar("x"), form.IntC(2)),
			form.Ge(form.PrimedVar("d"), form.Var("d"))), "x"),
			map[string]form.Expr{"d": failingAt(at20, x)}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := SameAsReference(t, g, tc.f, tc.mapping)
			if (res == nil) != tc.fails || res != nil && res.Holds != tc.holds {
				t.Fatalf("result %v, want holds=%v fails=%v", res, tc.holds, tc.fails)
			}
		})
	}
}

// TestSafetyUnderImageErrorReDerives: where f fails on an image, the step
// is evaluated as F̄, so the error names F̄'s expression, not f's.
func TestSafetyUnderImageErrorReDerives(t *testing.T) {
	g := ringGraph(t, 3, false)
	x, y := form.Var("x"), form.Var("y")
	mapping := map[string]form.Expr{"y": form.If(form.Eq(x, form.IntC(2)), form.EmptySeq, form.TupleOf(x))}
	for _, f := range []form.Formula{
		form.AlwaysPred(form.Ge(form.Head(y), form.IntC(0))),
		form.ActBoxVars(form.Ge(form.Head(form.PrimedVar("y")), form.IntC(0)), "x"),
	} {
		if res := SameAsReference(t, g, f, mapping); res != nil {
			t.Fatalf("%s: %v, want an error", f, res)
		}
	}
}

// TestLivenessImageErrorReDerives: where a WF/SF target's action fails on
// an image step, the taken-edge test evaluates the substituted action on
// the concrete step, so the error names F̄'s expression, not f's. On the
// fair ring x ∈ 0..2 under y ↦ IF x = 2 THEN ⟨⟩ ELSE ⟨x⟩, ENABLED is
// decided by x' = 0 before Head(y') is reached, so only the edge into
// x = 2 fails; with the mapped value failing at x = 2 instead, that
// state has no image at all.
func TestLivenessImageErrorReDerives(t *testing.T) {
	g := ringGraph(t, 3, true)
	x := form.Var("x")
	at2 := form.Eq(x, form.IntC(2))
	action := form.Or(form.Eq(form.PrimedVar("x"), form.IntC(0)), form.Ge(form.Head(form.PrimedVar("y")), form.IntC(0)))
	for _, tc := range []struct {
		name    string
		mapping map[string]form.Expr
		want    string // in the error: f on the image would fail in Head(y')
	}{
		{"image-fails", map[string]form.Expr{"y": form.If(at2, form.EmptySeq, form.TupleOf(x))}, "Head(((IF (x = 2)"},
		{"no-image", map[string]form.Expr{"y": failingAt(at2, form.TupleOf(x))}, "Head(<<>>)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, f := range []form.Formula{form.WFVars(action, "x"), form.SFVars(action, "x")} {
				if res := SameLivenessAsReference(t, g, f, tc.mapping); res != nil {
					t.Fatalf("%s: %v, want an error", f, res)
				}
				if _, err := Liveness(g, f, tc.mapping); !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: error %q, want one in %s", f, err, tc.want)
				}
			}
		})
	}
}

// TestImagesMatchFreshFailing: the memoized images equal a fresh
// evaluation where the mapping fails on some states — on the ring, and on
// the symmetry-reduced copy graph, whose real successor (2, 0) is no graph
// state and is mapped on its edge only.
func TestImagesMatchFreshFailing(t *testing.T) {
	x, y := form.Var("x"), form.Var("y")
	at2 := form.Eq(x, form.IntC(2))
	at20 := form.And(at2, form.Eq(y, form.IntC(0)))
	SameImagesAsFresh(t, ringGraph(t, 3, false), map[string]form.Expr{"y": failingAt(at2, form.Add(x, form.IntC(10)))})
	g := copyGraph(t)
	for _, mapping := range []map[string]form.Expr{
		{"d": x},
		{"d": failingAt(at20, x)},
		{"d": failingAt(at20, x), "s": form.Add(x, y)},
		// Values reading a variable the graph does not bind, or a primed
		// one, fail wherever they read it, beside a value that never fails.
		{"a": form.Var("absent"), "b": x},
		{"a": form.If(at2, form.Var("absent"), y), "b": x},
		{"a": form.If(at2, form.PrimedVar("y"), y), "b": form.Add(x, y)},
	} {
		SameImagesAsFresh(t, g, mapping)
	}
}
