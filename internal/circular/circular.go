// Package circular implements the two introductory examples of §1 of
// Abadi & Lamport, "Open Systems in TLA" (Figure 1): two processes Πc and
// Πd connected in a circle, where Πc owns variable c and reads d, and Πd
// owns d and reads c.
//
// In the first example the specifications are the safety properties
// M⁰c ("c always equals 0") and M⁰d ("d always equals 0"); the circular
// assumption/guarantee composition (M⁰d ⊳ M⁰c) ∧ (M⁰c ⊳ M⁰d) implies
// M⁰c ∧ M⁰d. In the second, the liveness analogues M¹c ("c eventually
// equals 1") and M¹d fail to compose: the processes may stutter forever.
package circular

import (
	"opentla/internal/ag"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// Domains returns the variable domains for the example: c, d ∈ {0, 1}.
func Domains() map[string][]value.Value {
	return map[string][]value.Value{
		"c": value.Bits(),
		"d": value.Bits(),
	}
}

// AlwaysZero returns the component specification asserting that the output
// variable out starts at 0 and never changes — the specification M⁰ of §1
// (e.g. M⁰c for out = "c"). Its next-state action is FALSE, so
// □[FALSE]_out forbids any change of out.
func AlwaysZero(name, out string, inputs ...string) *spec.Component {
	return &spec.Component{
		Name:    name,
		Inputs:  inputs,
		Outputs: []string{out},
		Init:    form.Eq(form.Var(out), form.IntC(0)),
		// No actions: N = FALSE, so the box only permits stuttering on out.
	}
}

// CopyProcess returns the process Π of §1 as a component: it starts with
// out = 0 and repeatedly sets out to the current value of in. The copy
// action is weakly fair, so the process keeps running.
func CopyProcess(name, out, in string) *spec.Component {
	copyAct := form.And(
		form.Eq(form.PrimedVar(out), form.Var(in)),
		form.Unchanged(in),
	)
	return &spec.Component{
		Name:    name,
		Inputs:  []string{in},
		Outputs: []string{out},
		Init:    form.Eq(form.Var(out), form.IntC(0)),
		Actions: []spec.Action{{Name: "Copy", Def: copyAct}},
		Fairness: []spec.Fairness{
			{Kind: form.Weak, Action: copyAct},
		},
	}
}

// BothZero returns the conclusion guarantee M⁰c ∧ M⁰d as a single
// component owning both variables.
func BothZero() *spec.Component {
	return &spec.Component{
		Name:    "BothZero",
		Outputs: []string{"c", "d"},
		Init: form.And(
			form.Eq(form.Var("c"), form.IntC(0)),
			form.Eq(form.Var("d"), form.IntC(0)),
		),
	}
}

// SafetyTheorem returns the Composition Theorem instance for the first
// example (§1 and §5): (M⁰d ⊳ M⁰c) ∧ (M⁰c ⊳ M⁰d) ⇒ M⁰c ∧ M⁰d, with a TRUE
// conclusion environment.
func SafetyTheorem() *ag.Theorem {
	return &ag.Theorem{
		Name: "circular-safety (§1 example 1)",
		Pairs: []ag.Pair{
			{
				Name: "c-device",
				Env:  AlwaysZero("M0d-assumption", "d", "c"),
				Sys:  AlwaysZero("M0c", "c", "d"),
			},
			{
				Name: "d-device",
				Env:  AlwaysZero("M0c-assumption", "c", "d"),
				Sys:  AlwaysZero("M0d", "d", "c"),
			},
		},
		Concl: ag.Conclusion{
			Env: nil, // unconditional
			Sys: BothZero(),
		},
		Domains: Domains(),
	}
}

// EventuallyOne returns the liveness property M¹ of the second example:
// ◇(v = 1).
func EventuallyOne(v string) form.Formula {
	return form.EventuallyPred(form.Eq(form.Var(v), form.IntC(1)))
}

// LivenessCompositionFormula returns the invalid composition claim of the
// second example:
//
//	(M¹d ⊳ M¹c) ∧ (M¹c ⊳ M¹d) ⇒ M¹c ∧ M¹d.
func LivenessCompositionFormula() form.Formula {
	m1c := EventuallyOne("c")
	m1d := EventuallyOne("d")
	return form.ImpliesFm(
		form.AndF(form.WhilePlus(m1d, m1c), form.WhilePlus(m1c, m1d)),
		form.AndF(m1c, m1d),
	)
}

// StutterCounterexample returns the behavior that refutes the liveness
// composition: both processes forever stutter with c = d = 0 — a fair
// behavior of Πc ‖ Πd (the copy actions never change anything, so weak
// fairness is vacuous).
func StutterCounterexample() *state.Lasso {
	s := state.FromPairs("c", value.Int(0), "d", value.Int(0))
	return state.StutterLasso(nil, s)
}
