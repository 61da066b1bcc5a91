package queue

import (
	"testing"

	"opentla/internal/ag"
	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// TestCorollaryRefinement is experiment E14: the Corollary of §5 validates
// the refinement (QE^dbl ⊳ DQ) ⇒ (QE^dbl ⊳ QM^dbl), where DQ is the fused
// double queue with the middle channel hidden.
func TestCorollaryRefinement(t *testing.T) {
	report, err := cfg1().CorollaryTheorem().Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !report.Valid {
		t.Fatalf("Corollary refinement should validate:\n%s", report)
	}
	t.Logf("\n%s", report)
}

// TestCorollaryRejectsOverclaim: the fused double queue does NOT refine a
// (2N+2)-element queue spec's *initial enqueue capacity*… it does refine
// any larger capacity on safety (a smaller queue's steps are a bigger
// queue's steps), so to get a genuine failure we check refinement of a
// SMALLER queue: capacity 2N, which the in-flight value on z overflows.
func TestCorollaryRejectsOverclaim(t *testing.T) {
	c := cfg1()
	th := c.CorollaryTheorem()
	th.Concl.Sys = QM("QM2N", 2*c.N, In, Out, "q", c.ValueDomain())
	report, err := th.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if report.Valid {
		t.Fatalf("capacity-2N refinement should fail:\n%s", report)
	}
}

// TestFusedDoubleMachineClosure: the fused implementation's fairness is
// machine closed (Proposition 1 applies to it).
func TestFusedDoubleMachineClosure(t *testing.T) {
	c := cfg1()
	res, err := ag.MachineClosure(c.FusedDouble(), c.DoubleDomains())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed {
		t.Fatalf("fused double queue should be machine closed; stuck at %s", res.StuckState)
	}
}

// TestProposition2OnQueue is experiment E5: Proposition 2 lifts closure
// implications through hiding. Premise (checked with internals visible):
// C(IDQ) ⇒ C(IQM^dbl) under the refinement mapping. Conclusion (checked by
// direct witness search on behaviors of E ∧ DQ): every behavior satisfies
// ∃q : C(IQM^dbl).
func TestProposition2OnQueue(t *testing.T) {
	c := cfg1()
	dq := c.FusedDouble()
	sys := &ts.System{
		Name:       "E-and-DQ",
		Components: []*spec.Component{QE("QEdbl", In, Out, c.ValueDomain()), dq},
		Domains:    c.DoubleDomains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	high := c.DoubleQueueSpec()

	// Premise: closure implication with the mapping (internals visible).
	res, err := check.SafetyUnder(g, high.SafetyOnly().SafetyFormula(), DoubleMapping())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("premise of Proposition 2 fails:\n%s", res)
	}

	// Conclusion: ∃q : C(IQM^dbl) holds on sampled behaviors of the graph,
	// discharged by brute-force witness search (no mapping supplied).
	hidden := form.ExistsF([]string{"q"}, form.Closure(high.SafetyOnly().InnerFormula()))
	ctx := g.Ctx
	ctx.Unroll = 1
	count := 0
	ok := check.GraphLassos(g, 2, 2, func(l *state.Lasso) bool {
		count++
		if count > 40 {
			return false
		}
		holds, err := hidden.Eval(ctx, l)
		if err != nil {
			t.Fatalf("witness search: %v", err)
		}
		if !holds {
			t.Fatalf("Proposition 2 conclusion fails on\n%s", l)
		}
		return true
	})
	_ = ok
	if count == 0 {
		t.Fatal("no behaviors sampled")
	}
}
