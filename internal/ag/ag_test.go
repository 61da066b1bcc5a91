package ag

import (
	"fmt"
	"testing"

	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

func emDomains() map[string][]value.Value {
	return map[string][]value.Value{"e": value.Bits(), "m": value.Bits()}
}

// stays0 is the component "out starts 0 and never changes".
func stays0(name, out string, inputs ...string) *spec.Component {
	return &spec.Component{
		Name:    name,
		Inputs:  inputs,
		Outputs: []string{out},
		Init:    form.Eq(form.Var(out), form.IntC(0)),
	}
}

// TestConditionalImplementation is experiment E13: TRUE ⊳ G equals G — a
// pair with a TRUE assumption contributes its guarantee unconditionally
// (§5's device for conditional implementation).
func TestConditionalImplementation(t *testing.T) {
	ctx := form.NewCtx(emDomains())
	g := form.Disjoint([]string{"e"}, []string{"m"})
	p := Pair{Name: "G"}
	for i, sq := range form.DisjointSteps([]string{"e"}, []string{"m"}) {
		p.Constraints = append(p.Constraints, ts.StepConstraint{
			Name:   fmt.Sprintf("G%d", i),
			Action: sq,
		})
	}
	universe := check.AllStates([]string{"e", "m"}, emDomains())
	check.ForAllLassos(universe, 2, 2, func(l *state.Lasso) bool {
		want, err := g.Eval(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Formula().Eval(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("TRUE ⊳ G (%v) ≠ G (%v) on\n%s", got, want, l)
		}
		return true
	})
}

// TestProposition3Semantics is experiment E6: on the finite (e, m) universe,
// verify the premises of Proposition 3 for a concrete instance and confirm
// its conclusion; then break a premise and watch the conclusion fail.
//
// Instance: E ≜ e=0 ∧ □[FALSE]_e, M ≜ m=0 ∧ □[FALSE]_m, and
// R ≜ (m=0) ∧ □[e=1]_m ("m changes only after e has gone bad").
func TestProposition3Semantics(t *testing.T) {
	ctx := form.NewCtx(emDomains())
	e := form.AndF(form.Pred(form.Eq(form.Var("e"), form.IntC(0))), form.ActBoxVars(form.FalseE, "e"))
	m := form.AndF(form.Pred(form.Eq(form.Var("m"), form.IntC(0))), form.ActBoxVars(form.FalseE, "m"))
	r := form.AndF(
		form.Pred(form.Eq(form.Var("m"), form.IntC(0))),
		form.ActBoxVars(form.Eq(form.Var("e"), form.IntC(1)), "m"),
	)
	universe := check.AllStates([]string{"e", "m"}, emDomains())

	evalOn := func(f form.Formula, l *state.Lasso) bool {
		ok, err := f.Eval(ctx, l)
		if err != nil {
			t.Fatalf("eval %s: %v", f, err)
		}
		return ok
	}
	// Premise 1: ⊨ E ∧ R ⇒ M. Premise 2: ⊨ R ⇒ E ⊥ M.
	// Conclusion: ⊨ E+v ∧ R ⇒ M with v = ⟨e, m⟩ ⊇ vars(M).
	plus := form.PlusVars(e, "e", "m")
	check.ForAllLassos(universe, 2, 2, func(l *state.Lasso) bool {
		if evalOn(e, l) && evalOn(r, l) && !evalOn(m, l) {
			t.Fatalf("premise 1 fails on\n%s", l)
		}
		if evalOn(r, l) && !evalOn(form.Orth(e, m), l) {
			t.Fatalf("premise 2 fails on\n%s", l)
		}
		if evalOn(plus, l) && evalOn(r, l) && !evalOn(m, l) {
			t.Fatalf("Proposition 3 conclusion fails on\n%s", l)
		}
		return true
	})

	// Side-condition necessity: with v = ⟨e⟩ (not containing m), the
	// conclusion must fail on some behavior: e goes bad and freezes, then
	// m moves.
	plusE := form.PlusVars(e, "e")
	violated := false
	check.ForAllLassos(universe, 2, 2, func(l *state.Lasso) bool {
		if evalOn(plusE, l) && evalOn(r, l) && !evalOn(m, l) {
			violated = true
			return false
		}
		return true
	})
	if !violated {
		t.Fatal("dropping m from v should break the conclusion (Prop 3's side condition)")
	}
}

// TestProposition4Semantics is experiment E7: for interleaving component
// specifications, (Init_E ∨ Init_M) ∧ Disjoint(e, m) implies
// C(E) ⊥ C(M), verified over the finite universe.
func TestProposition4Semantics(t *testing.T) {
	ctx := form.NewCtx(emDomains())
	envC := stays0("E", "e", "m")
	sysC := stays0("M", "m", "e")
	e := envC.SafetyFormula()
	m := sysC.SafetyFormula()
	hyp := form.AndF(
		form.OrF(form.Pred(envC.Init), form.Pred(sysC.Init)),
		form.Disjoint([]string{"e"}, []string{"m"}),
	)
	orth := form.Orth(form.Closure(e), form.Closure(m))
	universe := check.AllStates([]string{"e", "m"}, emDomains())
	hypSeen := false
	check.ForAllLassos(universe, 2, 2, func(l *state.Lasso) bool {
		okHyp, err := hyp.Eval(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if !okHyp {
			return true
		}
		hypSeen = true
		okOrth, err := orth.Eval(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if !okOrth {
			t.Fatalf("Proposition 4 fails on\n%s", l)
		}
		return true
	})
	if !hypSeen {
		t.Fatal("hypothesis never satisfied — vacuous test")
	}
	// Non-vacuity of Disjoint: without it, orthogonality fails somewhere.
	violated := false
	check.ForAllLassos(universe, 2, 2, func(l *state.Lasso) bool {
		okInit, err := form.OrF(form.Pred(envC.Init), form.Pred(sysC.Init)).Eval(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if !okInit {
			return true
		}
		okOrth, err := orth.Eval(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		if !okOrth {
			violated = true
			return false
		}
		return true
	})
	if !violated {
		t.Fatal("without Disjoint, some behavior should violate orthogonality")
	}
}

// TestMachineClosureDetectsUnclosedSpec: a component whose fairness demands
// an impossible action from a reachable state is not machine closed —
// MachineClosure must detect it (the hypothesis of Proposition 1 fails).
func TestMachineClosureDetectsUnclosedSpec(t *testing.T) {
	// x may step 0→1 (a dead end); fairness demands the 0→2 action, whose
	// ⟨A⟩ is disabled at 1 — wait, WF is satisfiable when disabled. Use SF
	// with an action enabled at 0 only reachable... Simplest unclosed spec:
	// fairness on action A = (x=0 ∧ x'=1), but another action lets x reach
	// 2 where nothing is enabled — machine closure still holds (WF vacuous
	// at 2). Instead demand SF of A while a sink at x=1 keeps A enabled
	// forever but untakeable: impossible — if enabled it is takeable.
	//
	// A genuinely unclosed spec needs fairness of an action outside the
	// next-state relation: WF(x'=x+1) with N = FALSE (x can never change).
	// From any state, no fair lasso exists: the action stays enabled but
	// can never be taken.
	c := &spec.Component{
		Name:    "unclosed",
		Outputs: []string{"x"},
		Init:    form.Eq(form.Var("x"), form.IntC(0)),
		// No actions: N = FALSE.
		Fairness: []spec.Fairness{{
			Kind:   form.Weak,
			Action: form.Eq(form.PrimedVar("x"), form.Add(form.Var("x"), form.IntC(1))),
		}},
	}
	res, err := MachineClosure(c, map[string][]value.Value{"x": value.Ints(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Closed {
		t.Fatal("WF of an impossible action should not be machine closed")
	}
	// The subaction check of Proposition 1 flags it too.
	ok, err := FairnessSubactionOK(c, map[string][]value.Value{"x": value.Ints(0, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("fairness action does not imply N = FALSE; the check should fail")
	}
}

// TestFairnessSubactionOKPositive: the hypothesis of Proposition 1 holds
// for a well-formed spec.
func TestFairnessSubactionOKPositive(t *testing.T) {
	inc := form.Eq(form.PrimedVar("x"), form.Add(form.Var("x"), form.IntC(1)))
	c := &spec.Component{
		Name:     "counter",
		Outputs:  []string{"x"},
		Init:     form.Eq(form.Var("x"), form.IntC(0)),
		Actions:  []spec.Action{{Name: "Inc", Def: inc}},
		Fairness: []spec.Fairness{{Kind: form.Weak, Action: inc}},
	}
	ok, err := FairnessSubactionOK(c, map[string][]value.Value{"x": value.Ints(0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("A = N should satisfy the subaction hypothesis")
	}
}

// TestTheoremValidation exercises the structural validation of Theorem.
func TestTheoremValidation(t *testing.T) {
	envWithFairness := stays0("E", "e", "m")
	envWithFairness.Fairness = []spec.Fairness{{Kind: form.Weak, Action: form.FalseE}}
	badEnv := &Theorem{
		Name:    "bad-env",
		Pairs:   []Pair{{Name: "p", Env: envWithFairness, Sys: stays0("M", "m", "e")}},
		Concl:   Conclusion{Sys: stays0("C", "m", "e")},
		Domains: emDomains(),
	}
	if _, err := badEnv.Check(); err == nil {
		t.Error("fairness in an assumption should be rejected")
	}
	noGuarantee := &Theorem{
		Name:    "no-guarantee",
		Pairs:   []Pair{{Name: "p"}},
		Concl:   Conclusion{Sys: stays0("C", "m", "e")},
		Domains: emDomains(),
	}
	if _, err := noGuarantee.Check(); err == nil {
		t.Error("a pair without a guarantee should be rejected")
	}
	needsMapping := &Theorem{
		Name:  "needs-mapping",
		Pairs: []Pair{{Name: "p", Sys: stays0("M", "m", "e")}},
		Concl: Conclusion{Sys: &spec.Component{
			Name: "C", Outputs: []string{"m"}, Internals: []string{"h"},
			Init: form.TrueE,
		}},
		Domains: emDomains(),
	}
	if _, err := needsMapping.Check(); err == nil {
		t.Error("internals without a mapping should be rejected")
	}
}

// TestTheoremDetectsBrokenGuarantee: if one device's guarantee does not
// support the conclusion, some hypothesis fails and the report is invalid.
func TestTheoremDetectsBrokenGuarantee(t *testing.T) {
	// Device guarantees m=0 assuming e=0, but the conclusion demands both
	// always 0 with no environment assumption AND nothing constrains e —
	// hypothesis 1 (deriving the device's assumption) must fail.
	th := &Theorem{
		Name:  "broken",
		Pairs: []Pair{{Name: "only", Env: stays0("E", "e", "m"), Sys: stays0("M", "m", "e")}},
		Concl: Conclusion{Sys: &spec.Component{
			Name:    "Both",
			Outputs: []string{"m", "e"},
			Init: form.And(
				form.Eq(form.Var("m"), form.IntC(0)),
				form.Eq(form.Var("e"), form.IntC(0)),
			),
		}},
		Domains: emDomains(),
	}
	report, err := th.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid {
		t.Fatalf("nothing guarantees e=0; the theorem must not validate:\n%s", report)
	}
}

// TestDisjointCoverNamesWhatCovers: disjointCover credits the step
// constraints alone when they cover (e, m), adds the guarantees' frames
// only when they fall short, and names both when both are needed. Here
// e = ⟨a, b⟩ and m = ⟨x⟩; the guarantee's one action freezes a but not b,
// and the constraint Gb separates b from x.
func TestDisjointCoverNamesWhatCovers(t *testing.T) {
	low := &spec.Component{
		Name:    "low",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"x"},
		Actions: []spec.Action{{Name: "Flip", Def: form.And(
			form.Eq(form.PrimedVar("x"), form.Sub(form.IntC(1), form.Var("x"))),
			form.Unchanged("a"),
		)}},
	}
	gb := ts.StepConstraint{Name: "Gb", Action: form.DisjointSteps([]string{"b"}, []string{"x"})[0]}
	gab := ts.StepConstraint{Name: "Gab", Action: form.DisjointSteps([]string{"a", "b"}, []string{"x"})[0]}
	e, m := []string{"a", "b"}, []string{"x"}
	for _, tc := range []struct {
		name  string
		pairs []Pair
		want  string
	}{
		{"constraints alone", []Pair{{Name: "low", Sys: low}, {Name: "G", Constraints: []ts.StepConstraint{gab}}}, "step constraints Gab"},
		{"constraints and frames", []Pair{{Name: "low", Sys: low}, {Name: "G", Constraints: []ts.StepConstraint{gb}}}, "step constraints Gb and frames of low"},
		{"frames fall short", []Pair{{Name: "low", Sys: low}}, ""},
	} {
		th := &Theorem{Name: tc.name, Pairs: tc.pairs}
		if got := th.disjointCover(e, m); got != tc.want {
			t.Errorf("%s: disjointCover = %q, want %q", tc.name, got, tc.want)
		}
	}
}
