package check_test

import (
	"strings"
	"testing"

	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/ts/tstest"
	"opentla/internal/value"
)

// flipper is x ∈ {0, 1}, free initially, and y = 0 forever: Flip moves x
// to the other value. Under the symmetry swapping 0 and 1 in x its graph
// has one representative, whose Flip edge leads back to it through the
// real successor x = 1: on the quotient that edge is a self-loop, and only
// its real successor says it is a Flip step.
func flipper(fair form.FairKind, withFairness bool) (*spec.Component, *ts.System, *reduce.Symmetry) {
	flip := form.Exists("v", value.Ints(0, 1), form.And(
		form.Ne(form.Var("v"), form.Var("x")),
		form.Eq(form.PrimedVar("x"), form.Var("v")),
		form.Eq(form.PrimedVar("y"), form.Var("y"))))
	c := &spec.Component{
		Name:    "flipper",
		Outputs: []string{"x", "y"},
		Init:    form.Eq(form.Var("y"), form.IntC(0)),
		Actions: []spec.Action{{Name: "Flip", Def: flip}},
	}
	if withFairness {
		c.Fairness = []spec.Fairness{{Kind: fair, Action: flip}}
	}
	sys := &ts.System{Name: "flipper", Components: []*spec.Component{c},
		Domains: map[string][]value.Value{"x": value.Ints(0, 1), "y": value.Ints(0, 1)}}
	return c, sys, &reduce.Symmetry{Values: value.Ints(0, 1), Vars: []string{"x"}}
}

// TestQuotientLivenessMatchesFull decides liveness targets on flipper's
// reduced graph, whose one state stands for two, with WF, SF or no
// fairness: each verdict must be the full graph's, and each reduced
// counterexample, lifted, a behavior of the full graph on which the
// fairness holds and the target fails. A fair cycle exists only through
// the Flip edge, so reading its label on the representative instead of
// the real successor, or not lifting the lasso, fails here.
func TestQuotientLivenessMatchesFull(t *testing.T) {
	y := form.Var("y")
	for _, tc := range []struct {
		name string
		kind form.FairKind
		fair bool
	}{{"WF", form.Weak, true}, {"SF", form.Strong, true}, {"unfair", form.Weak, false}} {
		t.Run(tc.name, func(t *testing.T) {
			c, sys, sym := flipper(tc.kind, tc.fair)
			full := build(t, sys)
			sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: sym}
			red := build(t, sys)
			if !red.Reduced() || red.NumStates() != 1 || full.NumStates() != 2 {
				t.Fatalf("full %d states, reduced %d states (reduced %v)", full.NumStates(), red.NumStates(), red.Reduced())
			}
			fairness := form.Formula(form.AndF())
			if tc.fair {
				fairness = c.FairnessFormula()
			}
			flip := c.Actions[0].Def
			for _, target := range []form.Formula{
				form.EventuallyPred(form.Eq(y, form.IntC(1))),
				form.Always(form.EventuallyPred(form.Eq(y, form.IntC(1)))),
				form.Eventually(form.AlwaysPred(form.Eq(y, form.IntC(0)))),
				form.LeadsTo(form.Eq(y, form.IntC(0)), form.Eq(y, form.IntC(1))),
				form.WF(c.SubTuple(), flip),
				form.SF(c.SubTuple(), flip),
			} {
				fr, err := check.Liveness(full, target, nil)
				if err != nil {
					t.Fatal(err)
				}
				rr, err := check.Liveness(red, target, nil)
				if err != nil {
					t.Fatal(err)
				}
				if fr.Holds != rr.Holds {
					t.Errorf("%s: full holds=%v, reduced holds=%v", target, fr.Holds, rr.Holds)
					continue
				}
				if !rr.Holds {
					if err := tstest.ViolatesLiveness(full, rr.Counterexample, fairness, target); err != nil {
						t.Errorf("%s: lifted counterexample: %v\n%s", target, err, rr.Counterexample)
					}
				}
			}
		})
	}
}

// TestFindFairLassoRefusesNonInvariant: on a reduced graph the fair-cycle
// search refuses a target the group does not leave invariant, and a
// condition that names no formula, with an error naming what it refused.
func TestFindFairLassoRefusesNonInvariant(t *testing.T) {
	_, sys, sym := flipper(form.Weak, true)
	sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: sym}
	red := build(t, sys)
	pinned := form.EventuallyPred(form.Eq(form.Var("x"), form.IntC(1)))
	_, err := check.Liveness(red, pinned, nil)
	if err == nil || !strings.Contains(err.Error(), "does not leave the target "+pinned.String()+" invariant") {
		t.Errorf("Liveness of %s on the reduced graph: error %v", pinned, err)
	}
	_, err = check.FindFairLasso(red, check.LassoQuery{StartIDs: red.Inits, Target: form.EventuallyPred(form.Var("y")),
		Conds: []check.CycleCond{{Name: "opaque", Buchi: true, HitState: func(int) bool { return true }}}})
	if err == nil || !strings.Contains(err.Error(), "condition opaque names no formula") {
		t.Errorf("FindFairLasso with an opaque condition: error %v", err)
	}
	if _, err := check.FindFairLasso(red, check.LassoQuery{StartIDs: red.Inits}); err == nil {
		t.Errorf("FindFairLasso without a target on a reduced graph: no error")
	}
}
