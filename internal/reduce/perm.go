package reduce

import (
	"opentla/internal/state"
	"opentla/internal/value"
)

// A Perm is a permutation of a symmetry's Values, applied to the scoped
// variables of a state as Canon relabels them: pointwise, recursively
// inside tuples. The zero Perm is the identity.
//
// A reduced graph keeps, for each edge, the real successor t of a
// representative; PermOf(t) is the permutation π with π(t) = Canon(t).
// Since a validated group maps steps to steps, composing these along a
// path of representatives turns it into a behavior of the system (see
// ts.Graph.Lift).
type Perm struct {
	sym *Symmetry
	to  []int // to[i] = j: Values[i] goes to Values[j]; nil for the identity
}

// PermOf returns the permutation Canon applies to s, π with π(s) =
// Canon(s): relabel's first-occurrence map, under which the j-th distinct
// orbit value of the scan goes to Values[j], extended to all of Values by
// sending the values s does not hold, in Values order, to the targets left
// over, in order. It ignores the sabotage seams, so on a sabotaged
// canonicalizer π(s) need not be Canon(s).
func (cz *Canonicalizer) PermOf(s *state.State) Perm {
	to := make([]int, len(cz.sym.Values))
	for i := range to {
		to[i] = -1
	}
	next := 0
	var scan func(v value.Value)
	scan = func(v value.Value) {
		if v.Kind() == value.KindTuple {
			for _, e := range v.Elems() {
				scan(e)
			}
			return
		}
		if i := cz.sym.index(v); i >= 0 && to[i] < 0 {
			to[i] = next
			next++
		}
	}
	for _, name := range cz.vars {
		if v, ok := s.Get(name); ok {
			scan(v)
		}
	}
	for i := range to {
		if to[i] < 0 {
			to[i] = next
			next++
		}
	}
	return Perm{sym: cz.sym, to: to}
}

// Symmetry returns the group the canonicalizer reduces by.
func (cz *Canonicalizer) Symmetry() *Symmetry { return cz.sym }

// Compose returns p ∘ q, the permutation that applies q, then p.
func (p Perm) Compose(q Perm) Perm {
	if p.to == nil {
		return q
	}
	if q.to == nil {
		return p
	}
	to := make([]int, len(q.to))
	for i, j := range q.to {
		to[i] = p.to[j]
	}
	return Perm{sym: p.sym, to: to}
}

// Inverse returns p⁻¹.
func (p Perm) Inverse() Perm {
	if p.to == nil {
		return p
	}
	inv := make([]int, len(p.to))
	for i, j := range p.to {
		inv[j] = i
	}
	return Perm{sym: p.sym, to: inv}
}

// Order returns the least n ≥ 1 with pⁿ the identity: the least common
// multiple of p's cycle lengths.
func (p Perm) Order() int {
	seen := make([]bool, len(p.to))
	order := 1
	for i := range p.to {
		n := 0
		for j := i; !seen[j]; j = p.to[j] {
			seen[j] = true
			n++
		}
		if n > 0 {
			order = lcm(order, n)
		}
	}
	return order
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// Apply returns s with p applied to the values of its scoped variables, or
// s itself when p moves none of them.
func (p Perm) Apply(s *state.State) *state.State {
	if p.to == nil {
		return s
	}
	var updates map[string]value.Value
	for _, name := range p.sym.Vars {
		v, ok := s.Get(name)
		if !ok {
			continue
		}
		if nv := p.value(v); !nv.Equal(v) {
			if updates == nil {
				updates = make(map[string]value.Value, len(p.sym.Vars))
			}
			updates[name] = nv
		}
	}
	if updates == nil {
		return s
	}
	return s.WithAll(updates)
}

// value applies p to one value, recursively inside tuples.
func (p Perm) value(v value.Value) value.Value {
	if v.Kind() == value.KindTuple {
		elems := v.Elems()
		for i := range elems {
			elems[i] = p.value(elems[i])
		}
		return value.Tuple(elems...)
	}
	if i := p.sym.index(v); i >= 0 {
		return p.sym.Values[p.to[i]]
	}
	return v
}
