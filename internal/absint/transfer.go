package absint

import (
	"opentla/internal/form"
	"opentla/internal/value"
)

// stepInfo is the result of abstractly interpreting one action definition:
// guard-refined pre-state domains, post-state domains for every variable
// the action constrains, and a three-valued enabledness verdict.
type stepInfo struct {
	pre     env             // pre-state domains, refined by the action's guards
	writes  map[string]*Dom // post-state domain per primed variable
	enabled Tri             // False ⇒ the action can never take a step
}

// analyzeAction interprets an action definition under the pre-state
// domains. declared supplies the fallback domain for a variable whose
// primed value the action constrains opaquely (or leaves unconstrained in
// one disjunct): the brute-force generator enumerates such variables over
// their declared domains, so that is the sound post-approximation.
func analyzeAction(def form.Expr, pre env, declared func(string) *Dom) stepInfo {
	st := stepInfo{pre: pre.clone(), writes: map[string]*Dom{}, enabled: True}
	var primed []form.Expr
	for _, c := range form.FlattenAnd(def, nil) {
		if len(form.PrimedVars(c)) == 0 {
			st.enabled = triAnd(st.enabled, refineGuard(c, st.pre))
		} else {
			primed = append(primed, c)
		}
	}
	// Primed conjuncts see the fully guard-refined pre-state.
	for _, c := range primed {
		st.applyPrimed(c, declared)
	}
	return st
}

// applyPrimed folds one primed conjunct into the step's write map. Each
// conjunct further constrains the post-state, so contributions for the
// same variable are intersected (Meet).
func (st *stepInfo) applyPrimed(c form.Expr, declared func(string) *Dom) {
	switch x := c.(type) {
	case form.AndE:
		for _, sub := range x.Xs {
			if len(form.PrimedVars(sub)) == 0 {
				st.enabled = triAnd(st.enabled, refineGuard(sub, st.pre))
			} else {
				st.applyPrimed(sub, declared)
			}
		}
		return
	case form.CmpE:
		if name, rhs, ok := form.Assignment(x); ok {
			st.mergeWrite(name, absEval(rhs, st.pre))
			return
		}
	case form.OrE:
		// Analyze each disjunct as a sub-action and join: a variable not
		// constrained by a feasible disjunct may take any declared value.
		branches := make([]stepInfo, 0, len(x.Xs))
		vars := map[string]bool{}
		orEnabled := False
		for _, b := range x.Xs {
			sub := analyzeAction(b, st.pre, declared)
			orEnabled = triOr(orEnabled, sub.enabled)
			if sub.enabled == False {
				continue // an infeasible disjunct contributes no steps
			}
			branches = append(branches, sub)
			for v := range sub.writes {
				vars[v] = true
			}
		}
		st.enabled = triAnd(st.enabled, orEnabled)
		for v := range vars {
			d := Bot()
			for _, b := range branches {
				if w, ok := b.writes[v]; ok {
					d = Join(d, w)
				} else {
					d = Join(d, declared(v))
				}
			}
			st.mergeWrite(v, d)
		}
		return
	case form.QuantE:
		if x.Exists {
			if len(x.Domain) == 0 {
				st.enabled = False
				return
			}
			inner := st.pre.clone()
			inner[x.Name] = FromValues(x.Domain...)
			sub := analyzeAction(x.Body, inner, declared)
			st.enabled = triAnd(st.enabled, sub.enabled)
			for v, d := range sub.writes {
				if v == x.Name {
					continue // rigid bound variable, not a state variable
				}
				st.mergeWrite(v, d)
			}
			return
		}
	}
	// Opaque constraint: every variable it primes may end up anywhere in
	// its declared domain.
	for _, v := range form.PrimedVars(c) {
		st.mergeWrite(v, declared(v))
	}
}

func (st *stepInfo) mergeWrite(name string, d *Dom) {
	if prev, ok := st.writes[name]; ok {
		st.writes[name] = Meet(prev, d)
		return
	}
	st.writes[name] = d
}

// refineGuard narrows the domains in en using a prime-free guard and
// returns the guard's satisfiability under the pre-refinement domains.
// Refinement is sound: the narrowed domain still contains every value
// that can satisfy the guard.
func refineGuard(g form.Expr, en env) Tri {
	t := evalTri(g, en)
	refine(g, en)
	return t
}

func refine(g form.Expr, en env) {
	switch x := g.(type) {
	case form.AndE:
		for _, c := range x.Xs {
			refine(c, en)
		}
	case form.CmpE:
		refineCmp(x.Op, x.A, x.B, en)
	case form.NotE:
		if c, ok := x.X.(form.CmpE); ok {
			refineCmp(negCmp(c.Op), c.A, c.B, en)
		}
	}
}

func refineCmp(op form.CmpOp, a, b form.Expr, en env) {
	if va, ok := a.(form.VarE); ok {
		if vb, ok := b.(form.VarE); ok && op == form.OpEq {
			m := Meet(en.get(va.Name), en.get(vb.Name))
			en[va.Name], en[vb.Name] = m, m
			return
		}
		en[va.Name] = refineVar(en.get(va.Name), op, absEval(b, en))
		return
	}
	if vb, ok := b.(form.VarE); ok {
		en[vb.Name] = refineVar(en.get(vb.Name), flipCmp(op), absEval(a, en))
		return
	}
	if q, ok := lenOf(a); ok {
		en[q] = refineLen(en.get(q), op, absEval(b, en))
		return
	}
	if q, ok := lenOf(b); ok {
		en[q] = refineLen(en.get(q), flipCmp(op), absEval(a, en))
	}
}

// lenOf matches Len(x) for a plain variable x.
func lenOf(e form.Expr) (string, bool) {
	if s, ok := e.(form.SeqUnE); ok && s.Op == form.OpLen {
		if v, ok := s.X.(form.VarE); ok {
			return v.Name, true
		}
	}
	return "", false
}

// refineVar narrows d under the constraint "x op other".
func refineVar(d *Dom, op form.CmpOp, other *Dom) *Dom {
	switch op {
	case form.OpEq:
		return Meet(d, other)
	case form.OpNe:
		if d.k == kFinite && other.k == kFinite && len(other.vals) == 1 {
			var out []value.Value
			for _, v := range d.vals {
				if !v.Equal(other.vals[0]) {
					out = append(out, v)
				}
			}
			return FromValues(out...)
		}
		return d
	}
	lo, hi, loInf, hiInf, ok := other.intRange()
	if !ok {
		return d
	}
	switch op {
	case form.OpLt:
		if !hiInf {
			return Meet(d, &Dom{k: kInt, hi: hi - 1, loInf: true})
		}
	case form.OpLe:
		if !hiInf {
			return Meet(d, &Dom{k: kInt, hi: hi, loInf: true})
		}
	case form.OpGt:
		if !loInf {
			return Meet(d, &Dom{k: kInt, lo: lo + 1, hiInf: true})
		}
	case form.OpGe:
		if !loInf {
			return Meet(d, &Dom{k: kInt, lo: lo, hiInf: true})
		}
	}
	return d
}

// refineLen narrows a sequence domain under the constraint
// "Len(x) op other".
func refineLen(d *Dom, op form.CmpOp, other *Dom) *Dom {
	lo, hi, loInf, hiInf, ok := other.intRange()
	if !ok {
		return d
	}
	// Translate into a length window [minL, maxL] (maxOpen ⇒ no upper cut).
	minL, maxL := 0, 0
	maxOpen := true
	switch op {
	case form.OpEq:
		if loInf || hiInf {
			return d
		}
		minL, maxL, maxOpen = int(lo), int(hi), false
	case form.OpLt:
		if hiInf {
			return d
		}
		maxL, maxOpen = int(hi)-1, false
	case form.OpLe:
		if hiInf {
			return d
		}
		maxL, maxOpen = int(hi), false
	case form.OpGt:
		if loInf {
			return d
		}
		minL = int(lo) + 1
	case form.OpGe:
		if loInf {
			return d
		}
		minL = int(lo)
	default:
		return d
	}
	if minL < 0 {
		minL = 0
	}
	switch d.k {
	case kFinite:
		window := &Dom{k: kSeq, elem: Top(), minLen: minL, maxLen: maxL, maxInf: maxOpen}
		return filterFinite(d, window)
	case kSeq:
		newMin := maxInt(d.minLen, minL)
		newMax, newInf := d.maxLen, d.maxInf
		if !maxOpen && (newInf || maxL < newMax) {
			newMax, newInf = maxL, false
		}
		return SeqOf(d.elem, newMin, newMax, newInf)
	case kTop:
		// Len(x) applies only to sequences, so x is one.
		if maxOpen {
			return SeqOf(Top(), minL, 0, true)
		}
		return SeqOf(Top(), minL, maxL, false)
	}
	return d
}

func negCmp(op form.CmpOp) form.CmpOp {
	switch op {
	case form.OpEq:
		return form.OpNe
	case form.OpNe:
		return form.OpEq
	case form.OpLt:
		return form.OpGe
	case form.OpLe:
		return form.OpGt
	case form.OpGt:
		return form.OpLe
	case form.OpGe:
		return form.OpLt
	}
	return op
}

// flipCmp mirrors the operator for swapped operands: a op b ⇔ b flip(op) a.
func flipCmp(op form.CmpOp) form.CmpOp {
	switch op {
	case form.OpLt:
		return form.OpGt
	case form.OpLe:
		return form.OpGe
	case form.OpGt:
		return form.OpLt
	case form.OpGe:
		return form.OpLe
	}
	return op
}

func triAnd(a, b Tri) Tri {
	if a == False || b == False {
		return False
	}
	if a == True && b == True {
		return True
	}
	return Unknown
}

func triOr(a, b Tri) Tri {
	if a == True || b == True {
		return True
	}
	if a == False && b == False {
		return False
	}
	return Unknown
}
