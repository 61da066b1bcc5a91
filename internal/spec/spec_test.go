package spec

import (
	"errors"
	"strings"
	"testing"

	"opentla/internal/form"
	"opentla/internal/state"
	"opentla/internal/value"
)

// counter returns a simple component: output x counts 0→1→2→0 …
func counter() *Component {
	inc := form.Eq(form.PrimedVar("x"), form.Mod(form.Add(form.Var("x"), form.IntC(1)), form.IntC(3)))
	return &Component{
		Name:    "counter",
		Outputs: []string{"x"},
		Init:    form.Eq(form.Var("x"), form.IntC(0)),
		Actions: []Action{{Name: "Inc", Def: inc}},
		Fairness: []Fairness{
			{Kind: form.Weak, Action: inc},
		},
	}
}

func TestOwnedAndVars(t *testing.T) {
	c := &Component{
		Name:      "c",
		Inputs:    []string{"in"},
		Outputs:   []string{"o1", "o2"},
		Internals: []string{"h"},
	}
	if got := strings.Join(c.Owned(), ","); got != "o1,o2,h" {
		t.Errorf("Owned = %s", got)
	}
	if got := strings.Join(c.Vars(), ","); got != "in,o1,o2,h" {
		t.Errorf("Vars = %s", got)
	}
}

func TestValidate(t *testing.T) {
	good := counter()
	if err := good.Validate(); err != nil {
		t.Errorf("valid component rejected: %v", err)
	}
	dup := &Component{Name: "d", Inputs: []string{"x"}, Outputs: []string{"x"}}
	err := dup.Validate()
	if err == nil {
		t.Error("duplicate variable should be rejected")
	}
	var dve *DuplicateVarError
	if !errors.As(err, &dve) {
		t.Errorf("duplicate declaration error is %T, want *DuplicateVarError", err)
	} else if dve.Var != "x" || dve.First != "input" || dve.Second != "output" {
		t.Errorf("DuplicateVarError = %+v", dve)
	}
	same := &Component{Name: "s", Outputs: []string{"y", "y"}}
	err = same.Validate()
	if !errors.As(err, &dve) {
		t.Fatalf("same-class duplicate error is %T, want *DuplicateVarError", err)
	}
	if dve.First != "output" || dve.Second != "output" {
		t.Errorf("same-class DuplicateVarError = %+v", dve)
	}
	if !strings.Contains(dve.Error(), "declared twice as output") {
		t.Errorf("same-class message = %q", dve.Error())
	}
	undeclared := &Component{
		Name:    "u",
		Outputs: []string{"x"},
		Actions: []Action{{Name: "A", Def: form.Eq(form.PrimedVar("x"), form.Var("ghost"))}},
	}
	if err := undeclared.Validate(); err == nil {
		t.Error("undeclared action variable should be rejected")
	}
	undeclaredInit := &Component{
		Name:    "ui",
		Outputs: []string{"x"},
		Init:    form.Eq(form.Var("x"), form.Var("ghost")),
	}
	if err := undeclaredInit.Validate(); err == nil || !strings.Contains(err.Error(), `Init mentions undeclared variable "ghost"`) {
		t.Errorf("undeclared Init variable: got %v", err)
	}
	primedInit := &Component{
		Name:    "p",
		Outputs: []string{"x"},
		Init:    form.Eq(form.PrimedVar("x"), form.IntC(0)),
	}
	if err := primedInit.Validate(); err == nil {
		t.Error("primed Init should be rejected")
	}
}

func TestNewRejectsIllFormed(t *testing.T) {
	if _, err := New(counter()); err != nil {
		t.Errorf("New rejected a valid component: %v", err)
	}
	bad := &Component{Name: "b", Inputs: []string{"x"}, Internals: []string{"x"}}
	if _, err := New(bad); err == nil {
		t.Error("New accepted a duplicate declaration")
	}
}

func TestFormulas(t *testing.T) {
	c := counter()
	// SafetyFormula = Init ∧ □[N]_v.
	sf := c.SafetyFormula()
	if !strings.Contains(sf.String(), "[][") {
		t.Errorf("SafetyFormula = %s", sf)
	}
	// InnerFormula adds fairness; Formula hides internals (none here).
	inner := c.InnerFormula()
	if !strings.Contains(inner.String(), "WF") {
		t.Errorf("InnerFormula = %s", inner)
	}
	if c.Formula().String() != inner.String() {
		t.Errorf("Formula without internals should equal InnerFormula")
	}
	h := &Component{Name: "h", Outputs: []string{"x"}, Internals: []string{"q"},
		Init: form.TrueE}
	if !strings.Contains(h.Formula().String(), "\\EE q") {
		t.Errorf("Formula should hide internals: %s", h.Formula())
	}
	// SafetyOnly drops fairness.
	so := c.SafetyOnly()
	if len(so.Fairness) != 0 || len(c.Fairness) != 1 {
		t.Error("SafetyOnly should strip fairness without mutating the original")
	}
}

func TestRename(t *testing.T) {
	c := counter()
	c.Inputs = []string{"d"}
	r := c.Rename("counter-y", map[string]string{"x": "y", "d": "e"})
	if r.Name != "counter-y" || r.Outputs[0] != "y" || r.Inputs[0] != "e" {
		t.Fatalf("rename lists: %+v", r)
	}
	// The original is untouched.
	if c.Outputs[0] != "x" {
		t.Error("rename mutated the original")
	}
	// Renamed Init mentions y.
	if !strings.Contains(r.Init.String(), "y") {
		t.Errorf("Init not renamed: %s", r.Init)
	}
	// The renamed definition relates renamed states.
	s := state.FromPairs("y", value.Int(1), "e", value.Int(0))
	to := state.FromPairs("y", value.Int(2), "e", value.Int(0))
	ok, err := form.EvalBool(r.Actions[0].Def, state.Step{From: s, To: to}, nil)
	if err != nil || !ok {
		t.Errorf("renamed Def rejects the renamed step: ok=%v err=%v", ok, err)
	}
}

// TestValidateRejectsMissingDef: an action without a definition has no
// semantics to derive successors from.
func TestValidateRejectsMissingDef(t *testing.T) {
	c := counter()
	c.Actions = append(c.Actions, Action{Name: "Opaque"})
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "Opaque") {
		t.Fatalf("Validate = %v, want an error naming action Opaque", err)
	}
}

// TestDerivedUpdates checks the successor candidates derived from an
// action's definition: one for a deterministic action, every permitted value
// for a nondeterministic one.
func TestDerivedUpdates(t *testing.T) {
	ctx := form.NewCtx(map[string][]value.Value{"x": value.Ints(0, 2)})
	c := counter()
	s := state.FromPairs("x", value.Int(1))
	derive := func(def form.Expr) [][]state.PosUpdate {
		t.Helper()
		updates, err := ctx.UpdatesFn(def, []string{"x"}, c.Owned())
		if err != nil {
			t.Fatal(err)
		}
		var u form.Updates
		if err := updates(s, &u); err != nil {
			t.Fatal(err)
		}
		return u.Cands
	}
	ups := derive(c.Actions[0].Def)
	if len(ups) != 1 || !ups[0][0].Val.Equal(value.Int(2)) {
		t.Fatalf("deterministic action: updates = %v", ups)
	}
	// Nondeterministic action: x' ∈ {0,1,2} with x' ≠ x.
	if ups := derive(form.Ne(form.PrimedVar("x"), form.Var("x"))); len(ups) != 2 {
		t.Fatalf("nondeterministic action: %d updates, want 2", len(ups))
	}
}

func TestSquareExpr(t *testing.T) {
	c := counter()
	sq := c.SquareExpr()
	s0 := state.FromPairs("x", value.Int(0))
	// Stutter allowed.
	ok, err := form.EvalBool(sq, state.Step{From: s0, To: s0}, nil)
	if err != nil || !ok {
		t.Errorf("stutter: ok=%v err=%v", ok, err)
	}
	// Increment allowed.
	ok, err = form.EvalBool(sq, state.Step{From: s0, To: s0.With("x", value.Int(1))}, nil)
	if err != nil || !ok {
		t.Errorf("increment: ok=%v err=%v", ok, err)
	}
	// Jump rejected.
	ok, err = form.EvalBool(sq, state.Step{From: s0, To: s0.With("x", value.Int(2))}, nil)
	if err != nil || ok {
		t.Errorf("jump: ok=%v err=%v", ok, err)
	}
}
