package form

import (
	"fmt"

	"opentla/internal/state"
)

// This file implements the assumption/guarantee operators of the paper:
// E ⊳ M (§3, written WhilePlus here), E → M (§3, written Arrow), E +v
// (§4.1, written Plus), and E ⊥ M (§4.2, written Orth).
//
// All four are defined in terms of satisfaction of finite prefixes; their
// lasso evaluation reduces to comparing "death indices" — the first prefix
// length at which a formula stops being satisfied (see DeathIndex).

// WhilePlusFm is E ⊳ M: (E ⇒ M) holds, and for every n ≥ 0, if E holds for
// the first n states then M holds for the first n+1 states. It is the form
// of assumption/guarantee specification adopted by the paper (§3).
type WhilePlusFm struct{ E, M Formula }

// WhilePlus returns the assumption/guarantee specification E ⊳ M.
func WhilePlus(e, m Formula) Formula { return WhilePlusFm{E: e, M: m} }

// Eval implements Formula. Writing dE, dM for the death indices of E and M
// on the behavior, the prefix condition of ⊳ is equivalent to
//
//	(dE = ∞ ∧ dM = ∞) ∨ dM > dE,
//
// i.e. M must remain (prefix-)satisfied strictly longer than E. The full
// operator additionally requires E ⇒ M on the infinite behavior.
func (f WhilePlusFm) Eval(ctx *Ctx, l *state.Lasso) (bool, error) {
	dE, err := DeathIndex(ctx, f.E, l)
	if err != nil {
		return false, err
	}
	dM, err := DeathIndex(ctx, f.M, l)
	if err != nil {
		return false, err
	}
	switch {
	case !dies(dE) && dies(dM):
		return false, nil
	case dies(dE) && dies(dM) && dM <= dE:
		return false, nil
	}
	return implicationHolds(ctx, f.E, f.M, l)
}

// Subst implements Formula.
func (f WhilePlusFm) Subst(sub map[string]Expr) Formula {
	return WhilePlusFm{E: f.E.Subst(sub), M: f.M.Subst(sub)}
}

func (f WhilePlusFm) String() string { return "(" + f.E.String() + " -+> " + f.M.String() + ")" }

// ArrowFm is E → M: M holds at least as long as E does (§3). Unlike ⊳ it
// permits M to be violated at the same instant as E.
type ArrowFm struct{ E, M Formula }

// Arrow returns E → M.
func Arrow(e, m Formula) Formula { return ArrowFm{E: e, M: m} }

// Eval implements Formula: the prefix condition is dM ≥ dE, plus E ⇒ M on
// the infinite behavior.
func (f ArrowFm) Eval(ctx *Ctx, l *state.Lasso) (bool, error) {
	dE, err := DeathIndex(ctx, f.E, l)
	if err != nil {
		return false, err
	}
	dM, err := DeathIndex(ctx, f.M, l)
	if err != nil {
		return false, err
	}
	switch {
	case !dies(dE) && dies(dM):
		return false, nil
	case dies(dE) && dies(dM) && dM < dE:
		return false, nil
	}
	return implicationHolds(ctx, f.E, f.M, l)
}

// Subst implements Formula.
func (f ArrowFm) Subst(sub map[string]Expr) Formula {
	return ArrowFm{E: f.E.Subst(sub), M: f.M.Subst(sub)}
}

func (f ArrowFm) String() string { return "(" + f.E.String() + " --> " + f.M.String() + ")" }

// PlusFm is E +v: if E ever becomes false, the state function v stops
// changing (§4.1). Precisely: σ satisfies E +v iff σ satisfies E, or there
// is an n such that E holds for the first n states and v never changes from
// the (n+1)-st state on.
type PlusFm struct {
	E   Formula
	Sub Expr
}

// PlusVars returns E +⟨names…⟩.
func PlusVars(e Formula, names ...string) Formula { return PlusFm{E: e, Sub: VarTuple(names...)} }

// Eval implements Formula. Let n0 be the least index from which v never
// changes (Infinite if v changes in the cycle), and dE the death index of
// E. Then E +v holds iff σ ⊨ E, or n0 is finite and n0 < dE (choose n = n0:
// E holds for the first n0 states and v is frozen from state n0 on).
func (f PlusFm) Eval(ctx *Ctx, l *state.Lasso) (bool, error) {
	ok, err := f.E.Eval(ctx, l)
	if err != nil {
		return false, err
	}
	if ok {
		return true, nil
	}
	n0, err := freezeIndex(f.Sub, l)
	if err != nil {
		return false, err
	}
	if !dies(n0) {
		return false, nil // v changes forever; E must have held
	}
	dE, err := DeathIndex(ctx, f.E, l)
	if err != nil {
		return false, err
	}
	return !dies(dE) || n0 < dE, nil
}

// Subst implements Formula.
func (f PlusFm) Subst(sub map[string]Expr) Formula {
	return PlusFm{E: f.E.Subst(sub), Sub: f.Sub.Subst(sub)}
}

func (f PlusFm) String() string { return "(" + f.E.String() + ")+_" + f.Sub.String() }

// freezeIndex returns the least index n such that the state function sub
// never changes from state n on, or Infinite if sub changes within the
// cycle (hence changes infinitely often).
func freezeIndex(sub Expr, l *state.Lasso) (int, error) {
	unchanged := UnchangedExpr(sub)
	// sub must be constant across every cycle step (including wrap-around).
	for _, st := range l.CycleSteps() {
		ok, err := EvalBool(unchanged, st, nil)
		if err != nil {
			return 0, err
		}
		if !ok {
			return Infinite, nil
		}
	}
	// Walk backward from the cycle entry through the prefix while sub keeps
	// the cycle's value.
	n := l.PrefixLen()
	for i := l.PrefixLen() - 1; i >= 0; i-- {
		ok, err := EvalBool(unchanged, l.StepAt(i), nil)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		n = i
	}
	return n, nil
}

// OrthFm is E ⊥ M — orthogonality (§4.2): no single step makes both E and M
// false. Precisely: there is no n ≥ 0 such that E and M are both satisfied
// by the first n states and both unsatisfied by the first n+1 states.
type OrthFm struct{ E, M Formula }

// Orth returns E ⊥ M.
func Orth(e, m Formula) Formula { return OrthFm{E: e, M: m} }

// Eval implements Formula: with monotone prefix satisfaction the condition
// "both die at the same finite index" is dE = dM ≠ ∞; orthogonality is its
// negation.
func (f OrthFm) Eval(ctx *Ctx, l *state.Lasso) (bool, error) {
	dE, err := DeathIndex(ctx, f.E, l)
	if err != nil {
		return false, err
	}
	dM, err := DeathIndex(ctx, f.M, l)
	if err != nil {
		return false, err
	}
	if dies(dE) && dies(dM) && dE == dM {
		return false, nil
	}
	return true, nil
}

// Subst implements Formula.
func (f OrthFm) Subst(sub map[string]Expr) Formula {
	return OrthFm{E: f.E.Subst(sub), M: f.M.Subst(sub)}
}

func (f OrthFm) String() string { return "(" + f.E.String() + " _|_ " + f.M.String() + ")" }

// implicationHolds evaluates E ⇒ M on the lasso.
func implicationHolds(ctx *Ctx, e, m Formula, l *state.Lasso) (bool, error) {
	okE, err := e.Eval(ctx, l)
	if err != nil {
		return false, err
	}
	if !okE {
		return true, nil
	}
	okM, err := m.Eval(ctx, l)
	if err != nil {
		return false, fmt.Errorf("evaluating guarantee %s: %w", m, err)
	}
	return okM, nil
}
