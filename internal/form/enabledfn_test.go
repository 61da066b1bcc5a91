package form

import (
	"math/rand"
	"slices"
	"testing"

	"opentla/internal/state"
	"opentla/internal/value"
)

// mappedLayout is the variable layout of the mapped-equality tests: a bit
// b, an abstract queue q of up to three bits, two one-slot queues s1 and
// s2, and a bit v in flight between them.
var mappedLayout = []string{"b", "q", "s1", "s2", "v"}

func mappedDomains() map[string][]value.Value {
	bits := value.Bits()
	return map[string][]value.Value{
		"b": bits, "q": value.Seqs(bits, 3), "s1": value.Seqs(bits, 1),
		"s2": value.Seqs(bits, 1), "v": bits,
	}
}

// mappedQueue is the refinement-mapping shape s2 ∘ (IF b = 1 THEN ⟨v⟩
// ELSE ⟨⟩) ∘ s1 of Fig. 9's q̄, over mappedLayout.
func mappedQueue() Expr {
	inFlight := If(Eq(Var("b"), IntC(1)), TupleOf(Var("v")), EmptySeq)
	return Concat(Concat(Var("s2"), inFlight), Var("s1"))
}

// mappedState decodes a state over mappedLayout from five indices.
func mappedState(domains map[string][]value.Value, pick func(n int) int) *state.State {
	vals := make(map[string]value.Value, len(mappedLayout))
	for _, v := range mappedLayout {
		dom := domains[v]
		vals[v] = dom[pick(len(dom))]
	}
	return state.New(vals)
}

// enabledDecoder turns bytes into a small action over mappedLayout. Beside
// guards, determined assignments, residual constraints, disjunction and
// negation, its grammar produces mapped equalities L = R — L reading only
// primed variables, R primeless — in both orders, with a partial L
// (Head of a possibly empty queue) and partial Rs (Tail or Head of one). It
// reads 0 once the input is exhausted, so every input decodes.
type enabledDecoder struct{ data []byte }

func (d *enabledDecoder) next(n int) int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b) % n
}

func (d *enabledDecoder) seqVar() string { return []string{"q", "s1", "s2"}[d.next(3)] }

func (d *enabledDecoder) lhs() Expr {
	switch d.next(4) {
	case 0:
		return Prime(mappedQueue())
	case 1:
		return Concat(PrimedVar("s1"), PrimedVar("s2"))
	case 2:
		return Prime(Head(Var("s1")))
	default:
		return TupleOf(PrimedVar("v"), PrimedVar("b"))
	}
}

func (d *enabledDecoder) rhs() Expr {
	switch d.next(5) {
	case 0:
		return Var("q")
	case 1:
		return AppendTo(Var("q"), Var("v"))
	case 2:
		return Tail(Var("q"))
	case 3:
		return Head(Var(d.seqVar()))
	default:
		return Concat(Var("s1"), Var("s2"))
	}
}

func (d *enabledDecoder) action(depth int) Expr {
	op := d.next(9)
	if depth == 0 {
		op %= 5
	}
	switch op {
	case 0:
		l, r := d.lhs(), d.rhs()
		if d.next(2) == 0 {
			return Eq(l, r)
		}
		return Eq(r, l)
	case 1:
		if d.next(2) == 0 {
			return Lt(Len(Var(d.seqVar())), IntC(int64(d.next(3))))
		}
		return Eq(Var("b"), IntC(int64(d.next(2))))
	case 2:
		switch d.next(3) {
		case 0:
			return Eq(PrimedVar("v"), Sub(IntC(1), Var("b")))
		case 1:
			return Eq(PrimedVar("b"), IntC(int64(d.next(2))))
		default:
			return Eq(PrimedVar(d.seqVar()), Tail(Var(d.seqVar())))
		}
	case 3:
		switch d.next(3) {
		case 0:
			return Ne(Prime(VarTuple(mappedLayout...)), VarTuple(mappedLayout...))
		case 1:
			return Ne(PrimedVar("s1"), PrimedVar("s2"))
		default:
			return Lt(Len(PrimedVar(d.seqVar())), IntC(int64(d.next(3))))
		}
	case 4:
		return Unchanged(mappedLayout[d.next(len(mappedLayout))])
	case 5, 6:
		return And(d.action(depth-1), d.action(depth-1))
	case 7:
		return Or(d.action(depth-1), d.action(depth-1))
	default:
		return Not(d.action(depth - 1))
	}
}

// sameEnabled fails t unless EnabledFn's compiled answer on s matches the
// interpreted Ctx.Enabled: the same verdict, or the same error.
func sameEnabled(t *testing.T, ctx *Ctx, en func(*state.State) (bool, error), a Expr, s *state.State) {
	t.Helper()
	got, gotErr := en(s)
	want, wantErr := ctx.Enabled(a, s)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s on %s: EnabledFn error %v, Enabled error %v", a, s, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s on %s: EnabledFn error %q, Enabled error %q", a, s, gotErr, wantErr)
	case gotErr == nil && got != want:
		t.Fatalf("%s on %s: EnabledFn %v, Enabled %v", a, s, got, want)
	}
}

// TestEnabledFnMatchesEnabled holds the compiled EnabledFn to the
// interpreted Ctx.Enabled on random actions (randomAction, every state), on
// random mapped-equality actions (enabledDecoder, sampled states), and on
// fixed mapped-equality shapes (every state).
func TestEnabledFnMatchesEnabled(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	t.Run("random", func(t *testing.T) {
		dom := value.Ints(0, 2)
		ctx := NewCtx(map[string][]value.Value{"x": dom, "y": dom, "z": dom})
		layout := []string{"x", "y", "z"}
		for i := 0; i < 300; i++ {
			a := randomAction(r, 3)
			en := ctx.EnabledFn(a, layout)
			for _, x := range dom {
				for _, y := range dom {
					for _, z := range dom {
						sameEnabled(t, ctx, en, a, st("x", x, "y", y, "z", z))
					}
				}
			}
		}
	})
	domains := mappedDomains()
	ctx := NewCtx(domains)
	t.Run("mapped", func(t *testing.T) {
		data := make([]byte, 32)
		for i := 0; i < 400; i++ {
			r.Read(data)
			a := (&enabledDecoder{data: data}).action(3)
			en := ctx.EnabledFn(a, mappedLayout)
			for j := 0; j < 12; j++ {
				sameEnabled(t, ctx, en, a, mappedState(domains, r.Intn))
			}
		}
	})
	angle := Ne(Prime(VarTuple(mappedLayout...)), VarTuple(mappedLayout...))
	for _, tc := range []struct {
		name string
		a    Expr
	}{
		// Fig. 9's Enq̄ shape: the mapped equality, then the angle conjunct.
		{"fig9-enq", And(Lt(Len(Var("q")), IntC(3)), Eq(Prime(mappedQueue()), AppendTo(Var("q"), Var("v"))), angle)},
		{"mapped-reversed", And(Eq(Var("q"), Prime(mappedQueue())), angle)},
		// Head(⟨⟩) fails on candidates with s1' empty.
		{"partial-lhs", And(Eq(Prime(Head(Var("s1"))), Var("v")), angle)},
		// Tail(⟨⟩) fails on states with q empty.
		{"failing-rhs", And(Eq(Prime(mappedQueue()), Tail(Var("q"))), angle)},
		// The mapped equality after another residual conjunct.
		{"second-residual", And(angle, Eq(Prime(mappedQueue()), Var("q")))},
		// L reads an unprimed variable.
		{"unprimed-lhs", And(Eq(Concat(PrimedVar("s1"), Var("s2")), Var("q")), angle)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			en := ctx.EnabledFn(tc.a, mappedLayout)
			var n int
			value.ForEachAssignment(mappedLayout, domains, func(asgn map[string]value.Value) bool {
				sameEnabled(t, ctx, en, tc.a, state.New(asgn))
				n++
				return true
			})
			if n != 540 {
				t.Fatalf("checked %d states, want 540", n)
			}
		})
	}
}

// FuzzEnabledFn holds EnabledFn to Ctx.Enabled on a decoded mapped-equality
// action and state: the same verdict, or the same error.
func FuzzEnabledFn(f *testing.F) {
	domains := mappedDomains()
	ctx := NewCtx(domains)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &enabledDecoder{data: data}
		s := mappedState(domains, d.next)
		a := d.action(4)
		sameEnabled(t, ctx, ctx.EnabledFn(a, mappedLayout), a, s)
	})
}

// TestUpdatesFnOrderMatchesBruteForce: on mapped-equality actions UpdatesFn
// lists its candidates in the order of a brute-force walk over the owned
// variables, last variable fastest, that skips every assignment on which
// the action is false or fails to evaluate.
func TestUpdatesFnOrderMatchesBruteForce(t *testing.T) {
	domains := mappedDomains()
	ctx := NewCtx(domains)
	owned := []string{"b", "s1", "s2", "v"}
	angle := Ne(Prime(VarTuple(mappedLayout...)), VarTuple(mappedLayout...))
	for _, a := range []Expr{
		And(Eq(Prime(mappedQueue()), AppendTo(Var("q"), Var("v"))), angle),
		And(Eq(Var("q"), Prime(mappedQueue())), angle),
		And(Eq(Prime(mappedQueue()), Tail(Var("q"))), angle),
		// R reads a primed owned variable.
		And(Eq(Prime(mappedQueue()), Concat(PrimedVar("s1"), Var("q"))), angle),
	} {
		updates, err := ctx.UpdatesFn(a, mappedLayout, owned)
		if err != nil {
			t.Fatalf("UpdatesFn(%s): %v", a, err)
		}
		// One Updates serves every state, as in successor generation.
		var u Updates
		value.ForEachAssignment(mappedLayout, domains, func(asgn map[string]value.Value) bool {
			s := state.New(asgn)
			u.Reset()
			if err := updates(s, &u); err != nil {
				t.Fatalf("%s on %s: %v", a, s, err)
			}
			var got, want []string
			for _, c := range u.Cands {
				got = append(got, s.CloneWith(c).Key())
			}
			value.ForEachAssignment(owned, domains, func(o map[string]value.Value) bool {
				to := s.WithAll(o)
				if ok, err := EvalBool(a, state.Step{From: s, To: to}, nil); err == nil && ok {
					want = append(want, to.Key())
				}
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s on %s:\n derived %v\n brute   %v", a, s, got, want)
			}
			return true
		})
	}
}

// TestEnabledFnLayoutMismatch: EnabledFn interprets, and UpdatesFn
// rejects, a state that binds as many variables as the layout but not the
// same ones; read by position, x = 0 would pass for a = 0.
func TestEnabledFnLayoutMismatch(t *testing.T) {
	dom := value.Ints(0, 1)
	ctx := NewCtx(map[string][]value.Value{"a": dom, "b": dom})
	layout := []string{"a", "b"}
	a := And(Eq(Var("a"), IntC(0)), Eq(PrimedVar("b"), IntC(1)), Unchanged("a"))
	xy := st("x", value.Int(0), "y", value.Int(0))
	sameEnabled(t, ctx, ctx.EnabledFn(a, layout), a, xy)
	updates, err := ctx.UpdatesFn(a, layout, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	var u Updates
	if err := updates(xy, &u); err == nil {
		t.Fatalf("UpdatesFn on %s: %v, want an error", xy, u.Cands)
	}
}
