package absint

import (
	"sort"

	"opentla/internal/form"
)

// Writes returns the variables whose next-state values e genuinely
// constrains. Benign stuttering conjuncts of the form f' = f — the
// UNCHANGED idiom every interleaving action uses for the variables it
// leaves alone — are not writes: [A]_v would otherwise make every action
// "write" every subscript variable. The analysis descends through the
// boolean structure so that stutter equations are recognized wherever the
// action places them; any other construct mentioning a primed variable
// (inequalities, arithmetic, negations) counts as a write.
//
// This is the canonical write-set inference shared by the syntactic vet
// checks (SV002/SV003) and the semantic pass: both must agree on what
// counts as a write, or a declared-ownership proof in one layer could be
// refuted in the other.
func Writes(e form.Expr) map[string]bool {
	out := make(map[string]bool)
	collectWrites(e, out)
	return out
}

func collectWrites(e form.Expr, out map[string]bool) {
	switch x := e.(type) {
	case form.AndE:
		for _, c := range x.Xs {
			collectWrites(c, out)
		}
	case form.OrE:
		for _, c := range x.Xs {
			collectWrites(c, out)
		}
	case form.QuantE:
		sub := make(map[string]bool)
		collectWrites(x.Body, sub)
		// The bound name is rigid within the body, not a state variable.
		delete(sub, x.Name)
		for v := range sub {
			out[v] = true
		}
	case form.CmpE:
		if x.Op == form.OpEq && form.StutterEq(x) {
			return
		}
		for _, v := range form.PrimedVars(x) {
			out[v] = true
		}
	default:
		if e == nil {
			return
		}
		for _, v := range form.PrimedVars(e) {
			out[v] = true
		}
	}
}

// Reads returns the unprimed state variables the expression depends on,
// sorted.
func Reads(e form.Expr) []string {
	unprimed, _ := form.FreeVars(e)
	return unprimed
}

// SortedVars returns the keys of a variable set in sorted order.
func SortedVars(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
