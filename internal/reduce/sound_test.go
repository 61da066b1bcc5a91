package reduce

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"opentla/internal/form"
	"opentla/internal/state"
	"opentla/internal/value"
)

// exprGen draws random step expressions over the scoped ints a and b, the
// scoped sequence q and the unscoped int c, with IF, bounded ∃, primes,
// tuples, sequence operators, =, ≠ and <.
type exprGen struct {
	r     *rand.Rand
	bound []string // quantifier-bound names in scope
}

func (g *exprGen) boolE(d int) form.Expr {
	if d <= 0 {
		return g.cmp(0)
	}
	switch g.r.Intn(7) {
	case 0:
		return form.Not(g.boolE(d - 1))
	case 1:
		return form.And(g.boolE(d-1), g.boolE(d-1))
	case 2:
		return form.Or(g.boolE(d-1), g.boolE(d-1))
	case 3:
		// Over the closed orbit, an open part of it, a disjoint set, or
		// the orbit and more.
		doms := [][]value.Value{value.Ints(0, 1), {value.Int(0)}, {value.Int(2)}, value.Ints(0, 2)}
		name := fmt.Sprintf("v%d", len(g.bound))
		g.bound = append(g.bound, name)
		body := g.boolE(d - 1)
		g.bound = g.bound[:len(g.bound)-1]
		return form.Exists(name, doms[g.r.Intn(len(doms))], body)
	default:
		return g.cmp(d - 1)
	}
}

func (g *exprGen) cmp(d int) form.Expr {
	a, b := g.val(d), g.val(d)
	switch g.r.Intn(5) {
	case 0, 1:
		return form.Eq(a, b)
	case 2, 3:
		return form.Ne(a, b)
	default:
		return form.Lt(a, b)
	}
}

func (g *exprGen) val(d int) form.Expr {
	if d > 0 {
		switch g.r.Intn(8) {
		case 0:
			return form.If(g.boolE(d-1), g.val(d-1), g.val(d-1))
		case 1:
			return form.TupleOf(g.val(d-1), g.val(d-1))
		case 2:
			return form.Prime(form.TupleOf(g.leaf(false), g.leaf(false)))
		case 3:
			return form.Head(g.val(d - 1))
		case 4:
			return form.Len(g.val(d - 1))
		case 5:
			return form.AppendTo(g.val(d-1), g.val(d-1))
		}
	}
	return g.leaf(g.r.Intn(3) == 0)
}

// leaf draws a variable (primed when primed is set) or a literal.
func (g *exprGen) leaf(primed bool) form.Expr {
	names := append([]string{"a", "b", "c", "q"}, g.bound...)
	if g.r.Intn(4) == 0 {
		lits := []value.Value{value.Int(0), value.Int(1), value.Int(2), value.Empty}
		return form.Const(lits[g.r.Intn(len(lits))])
	}
	name := names[g.r.Intn(len(names))]
	if primed && name[0] != 'v' {
		return form.PrimedVar(name)
	}
	return form.Var(name)
}

// TestCheckValueInvariantSound holds CheckValueInvariant to its promise on
// random step expressions: for every expression it accepts, on every step
// of a small universe, swapping the two orbit values in the scoped
// variables of both states leaves EvalBool's answer unchanged, or makes it
// fail on both.
func TestCheckValueInvariantSound(t *testing.T) {
	sym := &Symmetry{Values: value.Ints(0, 1), Vars: []string{"a", "b", "q"}}
	domains := map[string][]value.Value{
		"a": value.Ints(0, 1),
		"b": value.Ints(0, 1),
		"c": value.Ints(0, 2),
		"q": value.Seqs(value.Ints(0, 1), 1),
	}
	var states []*state.State
	value.ForEachAssignment([]string{"a", "b", "c", "q"}, domains, func(m map[string]value.Value) bool {
		states = append(states, state.New(m))
		return true
	})
	swap := func(s *state.State) *state.State {
		up := map[string]value.Value{}
		for _, v := range sym.Vars {
			up[v] = swapAtoms(s.MustGet(v), value.Int(0), value.Int(1))
		}
		return s.WithAll(up)
	}
	var steps, swapped []state.Step
	for _, s := range states {
		for _, u := range states {
			steps = append(steps, state.Step{From: s, To: u})
			swapped = append(swapped, state.Step{From: swap(s), To: swap(u)})
		}
	}

	seed := int64(40)
	if env := os.Getenv("OPENTLA_RAND_SEED"); env != "" {
		n, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("OPENTLA_RAND_SEED=%q: %v", env, err)
		}
		seed = n
	}
	t.Logf("random seed %d (override with OPENTLA_RAND_SEED)", seed)
	g := &exprGen{r: rand.New(rand.NewSource(seed))}
	var accepted, touching, rejected int
	for trial := 0; trial < 3000; trial++ {
		e := g.boolE(3)
		if sym.CheckValueInvariant(e) != nil {
			rejected++
			continue
		}
		accepted++
		if sym.touches(e, sym.scope()) {
			touching++
		}
		for i, st := range steps {
			want, werr := form.EvalBool(e, st, nil)
			got, gerr := form.EvalBool(e, swapped[i], nil)
			if (werr != nil) != (gerr != nil) || want != got {
				t.Fatalf("trial %d: accepted %s, but it is not invariant:\n%s -> %s: %v (err %v)\nswapped %s -> %s: %v (err %v)",
					trial, e, st.From, st.To, want, werr, swapped[i].From, swapped[i].To, got, gerr)
			}
		}
	}
	t.Logf("%d accepted (%d touching the scope), %d rejected", accepted, touching, rejected)
	if touching < 100 || rejected < 100 {
		t.Fatalf("degenerate sampling: %d accepted touching the scope, %d rejected", touching, rejected)
	}
}
