package form

import "sort"

// FreeVars returns the free flexible variables of an expression, separated
// into those with unprimed and primed occurrences (a variable may appear in
// both). Results are sorted.
func FreeVars(e Expr) (unprimed, primed []string) {
	up := make(map[string]bool)
	pr := make(map[string]bool)
	e.collect(up, pr, nil, false)
	return sortedKeys(up), sortedKeys(pr)
}

// AllVars returns every free flexible variable of e, primed or not, sorted.
func AllVars(e Expr) []string {
	up := make(map[string]bool)
	pr := make(map[string]bool)
	e.collect(up, pr, nil, false)
	for k := range pr {
		up[k] = true
	}
	return sortedKeys(up)
}

// PrimedVars returns the variables with primed occurrences in e, sorted.
// These are the variables whose next-state values the action constrains.
func PrimedVars(e Expr) []string {
	up := make(map[string]bool)
	pr := make(map[string]bool)
	e.collect(up, pr, nil, false)
	return sortedKeys(pr)
}

// HasPrimes reports whether e contains any primed variable occurrence —
// i.e. whether e is an action rather than a state function.
func HasPrimes(e Expr) bool {
	switch e.(type) {
	case VarE, ConstE:
		return false
	}
	up := make(map[string]bool)
	pr := make(map[string]bool)
	e.collect(up, pr, nil, false)
	return len(pr) > 0
}

// Rename returns e with variables renamed according to m. It implements the
// paper's substitution notation F[z/o] for variable-for-variable renaming
// (Appendix A.4); both primed and unprimed occurrences are renamed.
func Rename(e Expr, m map[string]string) Expr {
	sub := make(map[string]Expr, len(m))
	for from, to := range m {
		sub[from] = Var(to)
	}
	return e.Subst(sub)
}

// Unchanged returns the action asserting that none of the named variables
// changes: v1' = v1 ∧ … ∧ vn' = vn. This is the paper's v' = v for a tuple
// of variables.
func Unchanged(names ...string) Expr {
	xs := make([]Expr, len(names))
	for i, n := range names {
		xs[i] = Eq(PrimedVar(n), Var(n))
	}
	return And(xs...)
}

// UnchangedExpr returns the action f' = f for a state function f.
func UnchangedExpr(f Expr) Expr { return Eq(Prime(f), f) }

// Square returns [A]_f ≜ A ∨ (f' = f), the action allowing stuttering on f
// (§2.1).
func Square(action Expr, sub Expr) Expr { return Or(action, UnchangedExpr(sub)) }

// Angle returns ⟨A⟩_f ≜ A ∧ (f' ≠ f), an A step that changes f.
func Angle(action Expr, sub Expr) Expr { return And(action, Ne(Prime(sub), sub)) }

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
