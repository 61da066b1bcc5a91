package reduce

import (
	"sort"
	"strings"

	"opentla/internal/form"
)

// ParseDisjoint decomposes a step constraint into disjuncts that each
// freeze a set of variables, returning the frozen set per disjunct. It
// recognizes exactly the shapes form.DisjointSteps emits — disjunctions of
// UNCHANGED conjunctions and tuple-stutter equalities — and fails on
// anything else.
//
// This is the single shared reading of the paper's Disjoint hypothesis
// (§2.3): the vet pre-check uses it to audit interleaving coverage
// (SV020/SV021), and the block-symmetry validator uses it to compare
// constraints up to the argument reordering a block rename induces.
func ParseDisjoint(e form.Expr) ([]map[string]bool, bool) {
	var sets []map[string]bool
	for _, leaf := range OrLeaves(e) {
		s, ok := UnchangedSet(leaf)
		if !ok {
			return nil, false
		}
		sets = append(sets, s)
	}
	return sets, len(sets) > 0
}

// OrLeaves flattens nested disjunctions into their leaves.
func OrLeaves(e form.Expr) []form.Expr {
	if o, ok := e.(form.OrE); ok {
		var out []form.Expr
		for _, c := range o.Xs {
			out = append(out, OrLeaves(c)...)
		}
		return out
	}
	return []form.Expr{e}
}

// UnchangedSet parses an expression asserting that a set of variables is
// unchanged — v' = v, ⟨v1,…,vn⟩' = ⟨v1,…,vn⟩, or a conjunction of such —
// and returns that set.
func UnchangedSet(e form.Expr) (map[string]bool, bool) {
	switch x := e.(type) {
	case form.AndE:
		out := make(map[string]bool)
		for _, c := range x.Xs {
			s, ok := UnchangedSet(c)
			if !ok {
				return nil, false
			}
			for v := range s {
				out[v] = true
			}
		}
		return out, true
	case form.CmpE:
		if x.Op != form.OpEq || !stutterEq(x) {
			return nil, false
		}
		f := x.A
		if p, ok := x.A.(form.PrimeE); ok {
			f = p.X
		} else if p, ok := x.B.(form.PrimeE); ok {
			f = p.X
		}
		switch sub := f.(type) {
		case form.VarE:
			return map[string]bool{sub.Name: true}, true
		case form.TupleE:
			out := make(map[string]bool, len(sub.Xs))
			for _, c := range sub.Xs {
				v, ok := c.(form.VarE)
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
func stutterEq(x form.CmpE) bool {
	if p, ok := x.A.(form.PrimeE); ok && p.X.String() == x.B.String() {
		return true
	}
	if p, ok := x.B.(form.PrimeE); ok && p.X.String() == x.A.String() {
		return true
	}
	return false
}

// disjointNormal renders a Disjoint-shaped constraint in rename-invariant
// normal form: the sorted list of its sorted frozen-variable sets. Two
// constraints that freeze the same variable sets normalize identically even
// when a block rename reordered the DisjointSteps arguments (UNCHANGED
// ⟨g1,g2⟩ vs UNCHANGED ⟨g2,g1⟩).
func disjointNormal(sets []map[string]bool) string {
	lines := make([]string, len(sets))
	for i, s := range sets {
		names := make([]string, 0, len(s))
		for n := range s {
			names = append(names, n)
		}
		sort.Strings(names)
		lines[i] = strings.Join(names, ",")
	}
	sort.Strings(lines)
	return "disjoint{" + strings.Join(lines, "|") + "}"
}

// constraintNormal is the normal form used when comparing a constraint
// under block renames: Disjoint shapes normalize structurally, anything
// else falls back to the commutativity-normalized rendering.
func constraintNormal(e form.Expr) string {
	if sets, ok := ParseDisjoint(e); ok {
		return disjointNormal(sets)
	}
	return exprNormal(e)
}
