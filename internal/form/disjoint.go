package form

// Disjoint returns the interleaving assumption Disjoint(v1, …, vn) of §2.3:
// no two of the variable tuples change simultaneously,
//
//	Disjoint(v1,…,vn) ≜ ⋀_{i≠j} □[(vi' = vi) ∨ (vj' = vj)]_⟨vi,vj⟩.
//
// It is used as the conditional-implementation formula G when composing
// interleaving specifications (§5, §A.5).
func Disjoint(tuples ...[]string) Formula {
	var fs []Formula
	for i := range tuples {
		for j := i + 1; j < len(tuples); j++ {
			fs = append(fs, disjointPair(tuples[i], tuples[j]))
		}
	}
	return AndF(fs...)
}

func disjointPair(vi, vj []string) Formula {
	action := Or(Unchanged(vi...), Unchanged(vj...))
	both := make([]string, 0, len(vi)+len(vj))
	both = append(both, vi...)
	both = append(both, vj...)
	return ActBox(action, VarTuple(both...))
}

// DisjointSteps returns the per-step square actions of Disjoint — one
// [(vi'=vi) ∨ (vj'=vj)]_⟨vi,vj⟩ action per pair — for use as transition
// constraints when building a transition system.
func DisjointSteps(tuples ...[]string) []Expr {
	var out []Expr
	for i := range tuples {
		for j := i + 1; j < len(tuples); j++ {
			action := Or(Unchanged(tuples[i]...), Unchanged(tuples[j]...))
			both := make([]string, 0, len(tuples[i])+len(tuples[j]))
			both = append(both, tuples[i]...)
			both = append(both, tuples[j]...)
			out = append(out, Square(action, VarTuple(both...)))
		}
	}
	return out
}

// ParseDisjoint decomposes a step constraint into disjuncts that each
// freeze a set of variables, returning the frozen set per disjunct. It
// recognizes exactly the shapes DisjointSteps emits — disjunctions of
// UNCHANGED conjunctions and tuple-stutter equalities — and fails on
// anything else.
//
// The vet pre-check reads the paper's Disjoint hypothesis (§2.3) through
// it, both to audit interleaving coverage (SV020/SV021) and to re-prove
// that coverage from inferred writes (SV111), and the theorem check
// discharges Proposition 4's Disjoint(e, m) through it when the
// guarantees' constraints cover (e, m) (see DisjointCovers).
func ParseDisjoint(e Expr) ([]map[string]bool, bool) {
	var sets []map[string]bool
	for _, leaf := range orLeaves(e) {
		s, ok := unchangedSet(leaf)
		if !ok {
			return nil, false
		}
		sets = append(sets, s)
	}
	return sets, len(sets) > 0
}

// DisjointCovers reports whether step constraints force the variables of a
// and b to change in separate steps, so that every step they all allow
// satisfies [(a' = a) ∨ (b' = b)]. Each element of sets is one constraint
// as ParseDisjoint reads it: a step satisfies it iff it leaves one of its
// frozen sets unchanged.
//
// Frozen-set constraints are closed under shrinking the set of variables a
// step changes, so a step changing some x ∈ a and some y ∈ b is excluded
// iff the step changing just x and y is. That step is excluded iff some
// constraint has no disjunct missing both. The test is therefore exact for
// the given constraints, and several constraints may cover a pair together:
// G's three DisjointSteps cover (e, m) of Fig. 9, though none does alone.
// For one constraint it is the classic shape: each disjunct freezes all of
// a or all of b.
func DisjointCovers(sets [][]map[string]bool, a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if !separates(sets, x, y) {
				return false
			}
		}
	}
	return true
}

// separates reports whether some constraint forbids changing x and y in one
// step: each of its disjuncts freezes x or y.
func separates(sets [][]map[string]bool, x, y string) bool {
	for _, disjuncts := range sets {
		all := len(disjuncts) > 0
		for _, s := range disjuncts {
			if !s[x] && !s[y] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// orLeaves flattens nested disjunctions into their leaves.
func orLeaves(e Expr) []Expr {
	if o, ok := e.(OrE); ok {
		var out []Expr
		for _, c := range o.Xs {
			out = append(out, orLeaves(c)...)
		}
		return out
	}
	return []Expr{e}
}

// unchangedSet parses an expression asserting that a set of variables is
// unchanged — v' = v, ⟨v1,…,vn⟩' = ⟨v1,…,vn⟩, or a conjunction of such —
// and returns that set.
func unchangedSet(e Expr) (map[string]bool, bool) {
	switch x := e.(type) {
	case AndE:
		out := make(map[string]bool)
		for _, c := range x.Xs {
			s, ok := unchangedSet(c)
			if !ok {
				return nil, false
			}
			for v := range s {
				out[v] = true
			}
		}
		return out, true
	case CmpE:
		if x.Op != OpEq || !stutterEq(x) {
			return nil, false
		}
		f := x.A
		if p, ok := x.A.(PrimeE); ok {
			f = p.X
		} else if p, ok := x.B.(PrimeE); ok {
			f = p.X
		}
		switch sub := f.(type) {
		case VarE:
			return map[string]bool{sub.Name: true}, true
		case TupleE:
			out := make(map[string]bool, len(sub.Xs))
			for _, c := range sub.Xs {
				v, ok := c.(VarE)
				if !ok {
					return nil, false
				}
				out[v.Name] = true
			}
			return out, true
		}
		return nil, false
	}
	return nil, false
}

// stutterEq reports whether the equality has the shape f' = f (either
// operand order) for some state function f.
func stutterEq(x CmpE) bool {
	if p, ok := x.A.(PrimeE); ok && p.X.String() == x.B.String() {
		return true
	}
	if p, ok := x.B.(PrimeE); ok && p.X.String() == x.A.String() {
		return true
	}
	return false
}
