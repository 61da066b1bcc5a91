package check

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// newRand seeds a deterministic generator with def, or with the
// OPENTLA_RAND_SEED environment variable when set (for exploring other seeds
// or reproducing a CI failure). The seed is logged, so any failure message
// carries what is needed to replay it.
func newRand(t *testing.T, def int64) *rand.Rand {
	t.Helper()
	seed := def
	if env := os.Getenv("OPENTLA_RAND_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("OPENTLA_RAND_SEED=%q: %v", env, err)
		}
		seed = n
	}
	t.Logf("random seed %d (override with OPENTLA_RAND_SEED)", seed)
	return rand.New(rand.NewSource(seed))
}

// Randomized cross-validation: generate small random systems and
// properties, and validate the model checker's verdicts two independent
// ways:
//
//  1. every counterexample the checker produces is re-evaluated with the
//     semantic formula evaluator — the target must be FALSE on it and
//     every fairness assumption TRUE (a spurious counterexample would be a
//     checker bug);
//  2. for safety, the checker's verdict is compared against exhaustive
//     evaluation on enumerated graph lassos (bounded, so only the
//     "checker says holds but enumeration finds violation" direction is a
//     hard failure).

// randomSystem builds a component over variables x, y ∈ 0..2 with 2–4
// random guarded assignments and optional fairness.
func randomSystem(r *rand.Rand, fair bool) *ts.System {
	dom := value.Ints(0, 2)
	vars := []string{"x", "y"}
	v := func() string { return vars[r.Intn(2)] }
	lit := func() form.Expr { return form.IntC(int64(r.Intn(3))) }

	var actions []spec.Action
	nAct := 2 + r.Intn(3)
	for i := 0; i < nAct; i++ {
		target := v()
		guard := form.Eq(form.Var(v()), lit())
		update := form.Eq(form.PrimedVar(target), lit())
		other := "x"
		if target == "x" {
			other = "y"
		}
		def := form.And(guard, update, form.Unchanged(other))
		actions = append(actions, spec.Action{Name: fmt.Sprintf("A%d", i), Def: def})
	}
	c := &spec.Component{
		Name:    "rand",
		Outputs: []string{"x", "y"},
		Init: form.And(
			form.Eq(form.Var("x"), form.IntC(0)),
			form.Eq(form.Var("y"), form.IntC(0)),
		),
		Actions: actions,
	}
	if fair && len(actions) > 0 {
		c.Fairness = []spec.Fairness{{
			Kind:   form.FairKind(1 + r.Intn(2)),
			Action: actions[r.Intn(len(actions))].Def,
		}}
	}
	return &ts.System{
		Name:       "random",
		Components: []*spec.Component{c},
		Domains:    map[string][]value.Value{"x": dom, "y": dom},
	}
}

// fairnessFormulas returns the system's fairness assumptions as formulas.
func fairnessFormulas(sys *ts.System) []form.Formula {
	var out []form.Formula
	for _, c := range sys.Components {
		f := c.FairnessFormula()
		if _, isAnd := f.(form.AndFm); isAnd || len(c.Fairness) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// TestRandomSafetyAgreesWithEnumeration compares Invariant verdicts with
// exhaustive small-lasso enumeration.
func TestRandomSafetyAgreesWithEnumeration(t *testing.T) {
	r := newRand(t, 7)
	for trial := 0; trial < 60; trial++ {
		sys := randomSystem(r, false)
		g, err := sys.Build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		inv := form.Ne(
			form.Var([]string{"x", "y"}[r.Intn(2)]),
			form.IntC(int64(r.Intn(3))),
		)
		res, err := Invariant(g, inv)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Exhaustive evaluation of □inv on bounded graph lassos.
		target := form.AlwaysPred(inv)
		enumViolated := false
		GraphLassos(g, 3, 2, func(l *state.Lasso) bool {
			ok, err := target.Eval(g.Ctx, l)
			if err != nil {
				t.Fatalf("trial %d: eval: %v", trial, err)
			}
			if !ok {
				enumViolated = true
				return false
			}
			return true
		})
		if res.Holds && enumViolated {
			t.Fatalf("trial %d: checker says invariant holds but enumeration violates it", trial)
		}
		if !res.Holds {
			// The checker's own trace must violate the invariant at its
			// final state.
			last := res.Trace[len(res.Trace)-1]
			ok, err := form.EvalStateBool(inv, last)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if ok {
				t.Fatalf("trial %d: counterexample trace does not violate the invariant", trial)
			}
		}
	}
}

// TestRandomLivenessCounterexamplesAreGenuine validates every liveness
// counterexample semantically: target false, fairness true.
func TestRandomLivenessCounterexamplesAreGenuine(t *testing.T) {
	r := newRand(t, 11)
	violatedSeen := 0
	heldSeen := 0
	for trial := 0; trial < 80; trial++ {
		sys := randomSystem(r, true)
		g, err := sys.Build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var target form.Formula
		p := form.Eq(form.Var([]string{"x", "y"}[r.Intn(2)]), form.IntC(int64(r.Intn(3))))
		switch r.Intn(3) {
		case 0:
			target = form.EventuallyPred(p)
		case 1:
			target = form.Always(form.EventuallyPred(p))
		default:
			target = form.Eventually(form.AlwaysPred(p))
		}
		res, err := Liveness(g, target, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Holds {
			heldSeen++
			continue
		}
		violatedSeen++
		cex := res.Counterexample
		if cex == nil {
			t.Fatalf("trial %d: violation without counterexample", trial)
		}
		ok, err := target.Eval(g.Ctx, cex)
		if err != nil {
			t.Fatalf("trial %d: eval target: %v", trial, err)
		}
		if ok {
			t.Fatalf("trial %d: spurious counterexample — target %s holds on\n%s", trial, target, cex)
		}
		for _, ff := range fairnessFormulas(sys) {
			fok, err := ff.Eval(g.Ctx, cex)
			if err != nil {
				t.Fatalf("trial %d: eval fairness: %v", trial, err)
			}
			if !fok {
				t.Fatalf("trial %d: counterexample is unfair — %s fails on\n%s", trial, ff, cex)
			}
		}
		// The lasso must be a real path of the graph.
		for i := 0; i < cex.Horizon(); i++ {
			from := g.ID(cex.At(i))
			to := g.ID(cex.At(i + 1))
			if from < 0 || to < 0 || !hasEdge(g, from, to) {
				t.Fatalf("trial %d: counterexample step %d not a graph edge", trial, i)
			}
		}
	}
	if violatedSeen == 0 || heldSeen == 0 {
		t.Fatalf("degenerate sampling: %d violations, %d holds — adjust generators",
			violatedSeen, heldSeen)
	}
}

// TestRandomLivenessHoldsMatchesEnumeration: when the checker says a
// liveness property holds under fairness, every enumerated fair lasso must
// satisfy it.
func TestRandomLivenessHoldsMatchesEnumeration(t *testing.T) {
	r := newRand(t, 13)
	for trial := 0; trial < 40; trial++ {
		sys := randomSystem(r, true)
		g, err := sys.Build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		p := form.Eq(form.Var("x"), form.IntC(int64(r.Intn(3))))
		target := form.EventuallyPred(p)
		res, err := Liveness(g, target, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Holds {
			continue
		}
		fairFs := fairnessFormulas(sys)
		GraphLassos(g, 2, 2, func(l *state.Lasso) bool {
			for _, ff := range fairFs {
				fok, err := ff.Eval(g.Ctx, l)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if !fok {
					return true // unfair behavior: exempt
				}
			}
			ok, err := target.Eval(g.Ctx, l)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !ok {
				t.Fatalf("trial %d: checker says %s holds but fair lasso violates it:\n%s",
					trial, target, l)
			}
			return true
		})
	}
}
