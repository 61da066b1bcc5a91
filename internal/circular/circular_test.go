package circular

import (
	"testing"

	"opentla/internal/ag"
	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/ts"
)

// TestCircularSafetyComposition is experiment E1/E9: the Composition
// Theorem validates the circular composition of the two safety
// specifications (§1 example 1, §5 "trivial" example).
func TestCircularSafetyComposition(t *testing.T) {
	th := SafetyTheorem()
	report, err := th.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !report.Valid {
		t.Fatalf("composition theorem should validate the safety example:\n%s", report)
	}
}

// TestCircularSafetySemantics cross-checks the theorem's conclusion by
// brute-force evaluation of the full formula on every small lasso of the
// c,d universe.
func TestCircularSafetySemantics(t *testing.T) {
	th := SafetyTheorem()
	violation, err := ag.ValidOnUniverse(th.Formula(), []string{"c", "d"}, Domains(), 2, 2)
	if err != nil {
		t.Fatalf("ValidOnUniverse: %v", err)
	}
	if violation != nil {
		t.Fatalf("conclusion formula violated on:\n%s", violation)
	}
}

// TestCircularLivenessFails is experiment E2: the liveness analogue of the
// composition is invalid, witnessed by the all-stuttering behavior of
// Πc ‖ Πd (§1 example 2).
func TestCircularLivenessFails(t *testing.T) {
	ctx := form.NewCtx(Domains())
	f := LivenessCompositionFormula()
	cex := StutterCounterexample()
	ok, err := f.Eval(ctx, cex)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if ok {
		t.Fatalf("liveness composition formula unexpectedly holds on the stuttering behavior")
	}
}

// TestStutterBehaviorIsFair confirms the counterexample is a genuine fair
// behavior of the parallel composition of the two copy processes: the model
// checker must agree that ◇(c=1) fails for Πc ‖ Πd.
func TestStutterBehaviorIsFair(t *testing.T) {
	sys := &ts.System{
		Name:       "copy-processes",
		Components: []*spec.Component{CopyProcess("Pc", "c", "d"), CopyProcess("Pd", "d", "c")},
		Domains:    Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := check.Liveness(g, EventuallyOne("c"), nil)
	if err != nil {
		t.Fatalf("Liveness: %v", err)
	}
	if res.Holds {
		t.Fatalf("◇(c=1) should fail for the copy processes (they can stutter forever)")
	}
	if res.Counterexample == nil {
		t.Fatalf("expected a counterexample lasso")
	}
}

// TestCopyProcessesImplementSafety verifies the §1 argument that the
// processes themselves implement the safety guarantees: Πc ‖ Πd keeps
// c = d = 0.
func TestCopyProcessesImplementSafety(t *testing.T) {
	sys := &ts.System{
		Name:       "copy-processes",
		Components: []*spec.Component{CopyProcess("Pc", "c", "d"), CopyProcess("Pd", "d", "c")},
		Domains:    Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumStates() != 1 {
		t.Fatalf("expected exactly one reachable state (c=0, d=0), got %d", g.NumStates())
	}
	res, err := check.Component(g, BothZero(), nil)
	if err != nil {
		t.Fatalf("Component: %v", err)
	}
	if !res.Holds() {
		t.Fatalf("Πc ‖ Πd should implement M⁰c ∧ M⁰d:\n%s", res)
	}
}

// TestCopyProcessGuaranteesAG verifies that the process Πc satisfies its
// assumption/guarantee specification M⁰d ⊳ M⁰c, checked over the most
// general environment (d changes freely).
func TestCopyProcessGuaranteesAG(t *testing.T) {
	sys := &ts.System{
		Name:       "Pc-alone",
		Components: []*spec.Component{CopyProcess("Pc", "c", "d")},
		Domains:    Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := check.WhilePlus(g,
		AlwaysZero("M0d-assumption", "d", "c"),
		AlwaysZero("M0c", "c", "d"),
		nil)
	if err != nil {
		t.Fatalf("WhilePlus: %v", err)
	}
	if !res.Holds() {
		t.Fatalf("Πc should satisfy M⁰d -+> M⁰c:\n%s", res)
	}
}

// TestCopyProcessViolatesUnconditional shows the guarantee alone (without
// the assumption) is NOT satisfied by Πc in a hostile environment: if d is
// free to become 1, Πc copies it and violates M⁰c. This confirms the need
// for assumption/guarantee specifications.
func TestCopyProcessViolatesUnconditional(t *testing.T) {
	sys := &ts.System{
		Name:       "Pc-alone",
		Components: []*spec.Component{CopyProcess("Pc", "c", "d")},
		Domains:    Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := check.Safety(g, AlwaysZero("M0c", "c", "d").SafetyFormula())
	if err != nil {
		t.Fatalf("Safety: %v", err)
	}
	if res.Holds {
		t.Fatalf("M⁰c should fail for Πc under a free environment")
	}
}

// TestMachineClosureOfCopyProcess checks Proposition 1's hypothesis for the
// copy process: its fairness is machine closed.
func TestMachineClosureOfCopyProcess(t *testing.T) {
	res, err := ag.MachineClosure(CopyProcess("Pc", "c", "d"), Domains())
	if err != nil {
		t.Fatalf("MachineClosure: %v", err)
	}
	if !res.Closed {
		t.Fatalf("copy process should be machine closed; stuck at %s", res.StuckState)
	}
}
