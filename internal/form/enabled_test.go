package form

import (
	"math/rand"
	"testing"

	"opentla/internal/state"
	"opentla/internal/value"
)

// bruteEnabled is the reference implementation: enumerate all assignments
// to the primed variables of a and test the action.
func bruteEnabled(c *Ctx, a Expr, s *state.State) (bool, error) {
	primed := PrimedVars(a)
	enabled := false
	var evalErr error
	value.ForEachAssignment(primed, c.Domains, func(asgn map[string]value.Value) bool {
		cp := make(map[string]value.Value, len(asgn))
		for k, v := range asgn {
			cp[k] = v
		}
		t := s.WithAll(cp)
		ok, err := EvalBool(a, state.Step{From: s, To: t}, nil)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			enabled = true
			return false
		}
		return true
	})
	return enabled, evalErr
}

// randomAction generates a small random action over x, y, z.
func randomAction(r *rand.Rand, depth int) Expr {
	vars := []string{"x", "y", "z"}
	v := func() Expr { return Var(vars[r.Intn(len(vars))]) }
	pv := func() Expr { return PrimedVar(vars[r.Intn(len(vars))]) }
	lit := func() Expr { return IntC(int64(r.Intn(3))) }
	atom := func() Expr {
		switch r.Intn(6) {
		case 0:
			return Eq(pv(), v())
		case 1:
			return Eq(pv(), lit())
		case 2:
			return Eq(pv(), Add(v(), IntC(1)))
		case 3:
			return Lt(v(), lit())
		case 4:
			return Ne(pv(), pv())
		default:
			return Eq(v(), lit())
		}
	}
	if depth == 0 {
		return atom()
	}
	switch r.Intn(4) {
	case 0:
		return And(randomAction(r, depth-1), randomAction(r, depth-1))
	case 1:
		return Or(randomAction(r, depth-1), randomAction(r, depth-1))
	case 2:
		return Not(randomAction(r, depth-1))
	default:
		return atom()
	}
}

// TestEnabledMatchesBruteForce cross-validates the structure-aware Enabled
// (guard short-circuiting, determined assignments, Or-distribution) against
// plain enumeration, on randomly generated actions and states.
func TestEnabledMatchesBruteForce(t *testing.T) {
	dom := value.Ints(0, 2)
	ctx := NewCtx(map[string][]value.Value{"x": dom, "y": dom, "z": dom})
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a := randomAction(r, 2)
		s := st(
			"x", value.Int(int64(r.Intn(3))),
			"y", value.Int(int64(r.Intn(3))),
			"z", value.Int(int64(r.Intn(3))),
		)
		fast, err1 := ctx.Enabled(a, s)
		slow, err2 := bruteEnabled(ctx, a, s)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iteration %d: error mismatch: fast=%v slow=%v for %s on %s", i, err1, err2, a, s)
		}
		if err1 != nil {
			continue
		}
		if fast != slow {
			t.Fatalf("iteration %d: Enabled=%v brute=%v for %s on %s", i, fast, slow, a, s)
		}
	}
}

// TestEnabledDeterminedOutOfDomain checks that a determined successor value
// outside the variable's domain disables the action (the successor must lie
// in the universe).
func TestEnabledDeterminedOutOfDomain(t *testing.T) {
	ctx := NewCtx(map[string][]value.Value{"x": value.Ints(0, 2)})
	s := st("x", value.Int(2))
	a := Eq(PrimedVar("x"), Add(Var("x"), IntC(1))) // x' = 3 ∉ domain
	en, err := ctx.Enabled(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if en {
		t.Error("x'=x+1 at x=2 should be disabled for domain 0..2")
	}
}

// TestEnabledConflictingDeterminations checks that contradictory x' = e
// conjuncts disable the action.
func TestEnabledConflictingDeterminations(t *testing.T) {
	ctx := NewCtx(map[string][]value.Value{"x": value.Ints(0, 2)})
	s := st("x", value.Int(0))
	a := And(Eq(PrimedVar("x"), IntC(1)), Eq(PrimedVar("x"), IntC(2)))
	en, err := ctx.Enabled(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if en {
		t.Error("x'=1 ∧ x'=2 should be disabled")
	}
	b := And(Eq(PrimedVar("x"), IntC(1)), Eq(IntC(1), PrimedVar("x")))
	en, err = ctx.Enabled(b, s)
	if err != nil {
		t.Fatal(err)
	}
	if !en {
		t.Error("x'=1 ∧ 1=x' should be enabled")
	}
}

// TestEnabledAngle: an action may be enabled while ⟨A⟩_v (requiring a
// change of v) is not.
func TestEnabledAngle(t *testing.T) {
	ctx := NewCtx(map[string][]value.Value{
		"x": value.Ints(0, 1), "y": value.Ints(0, 1),
	})
	// A: x' = y (copy). At x=0, y=0 the copy is enabled but cannot change x.
	a := Eq(PrimedVar("x"), Var("y"))
	s := st("x", value.Int(0), "y", value.Int(0))
	en, err := ctx.Enabled(a, s)
	if err != nil {
		t.Fatal(err)
	}
	if !en {
		t.Error("copy should be enabled")
	}
	enAngle, err := ctx.Enabled(Angle(a, VarTuple("x")), s)
	if err != nil {
		t.Fatal(err)
	}
	if enAngle {
		t.Error("⟨copy⟩_x should be disabled when x already equals y")
	}
	s2 := st("x", value.Int(0), "y", value.Int(1))
	enAngle, err = ctx.Enabled(Angle(a, VarTuple("x")), s2)
	if err != nil {
		t.Fatal(err)
	}
	if !enAngle {
		t.Error("⟨copy⟩_x should be enabled when x ≠ y")
	}
}

// TestEnabledQuantifiedAction checks Enabled through a bounded existential
// (the environment's Put action shape).
func TestEnabledQuantifiedAction(t *testing.T) {
	dom := value.Ints(0, 2)
	ctx := NewCtx(map[string][]value.Value{"x": dom})
	a := Exists("v", dom, Eq(PrimedVar("x"), Var("v")))
	en, err := ctx.Enabled(a, st("x", value.Int(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !en {
		t.Error("∃v: x'=v should be enabled")
	}
}
