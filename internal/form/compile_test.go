package form

import (
	"sync"
	"testing"

	"opentla/internal/state"
	"opentla/internal/value"
)

// stepString renders a step whose To may be nil.
func stepString(st state.Step) string {
	if st.To == nil {
		return st.From.String() + " -> (none)"
	}
	return st.String()
}

// sameCompiled fails t unless e's compiled forms over mappedLayout agree
// with EvalBool on st: where the raw compiled closure returns no error, the
// interpreter succeeds with the same verdict, and the wrapped CompilePred
// returns the interpreter's verdict or its error text. It reports whether
// the raw closure decided.
func sameCompiled(t *testing.T, e Expr, st state.Step) bool {
	t.Helper()
	return sameAnswers(t, e, CompileRaw(e, mappedLayout), CompilePred(e, mappedLayout), st)
}

// sameAnswers is sameCompiled for closures already compiled from e, so a
// caller can evaluate them on many steps and meet their memos' hits.
func sameAnswers(t *testing.T, e Expr, raw func(state.Step) (bool, error), p CompiledPred, st state.Step) bool {
	t.Helper()
	want, wantErr := EvalBool(e, st, nil)
	got, rawErr := raw(st)
	if rawErr == nil && (wantErr != nil || got != want) {
		t.Fatalf("%s on %s: compiled %v, interpreter %v (error %v)", e, stepString(st), got, want, wantErr)
	}
	got, gotErr := p(st)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s on %s: CompilePred error %v, EvalBool error %v", e, stepString(st), gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s on %s: CompilePred error %q, EvalBool error %q", e, stepString(st), gotErr, wantErr)
	case gotErr == nil && got != want:
		t.Fatalf("%s on %s: CompilePred %v, EvalBool %v", e, stepString(st), got, want)
	}
	return rawErr == nil
}

// TestCompilePredLayoutMismatch: a state that does not bind exactly the
// compiled layout's variables is interpreted, even when it binds as many.
func TestCompilePredLayoutMismatch(t *testing.T) {
	ab := st("a", value.Int(0), "b", value.Int(0))
	xy := st("x", value.Int(0), "y", value.Int(0))
	ac := st("a", value.Int(0), "c", value.Int(1))
	for _, tc := range []struct {
		name   string
		e      Expr
		layout []string
		step   state.Step
	}{
		// Read by position, x = y would pass for a = b.
		{"other-names", Eq(Var("a"), Var("b")), []string{"a", "b"}, state.Step{From: xy}},
		{"other-successor", Eq(PrimedVar("b"), Var("b")), []string{"a", "b"}, state.Step{From: ab, To: ac}},
		{"stutter-other-successor", Unchanged("a", "b"), []string{"a", "b"}, state.Step{From: ab, To: xy}},
		// An unsorted layout matches no state.
		{"unsorted-layout", Eq(Var("a"), IntC(0)), []string{"b", "a"}, state.Step{From: ab}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, gotErr := CompilePred(tc.e, tc.layout)(tc.step)
			want, wantErr := EvalBool(tc.e, tc.step, nil)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() || got != want {
				t.Fatalf("CompilePred %v, %v; EvalBool %v, %v", got, gotErr, want, wantErr)
			}
		})
	}
}

// TestCompileStutterNeedsSameShape: the compiled UNCHANGED fast path
// compares codes only when both sides are the same variable or variable
// tuple; x' = ⟨x⟩ compares an int with a tuple and is FALSE on every step.
func TestCompileStutterNeedsSameShape(t *testing.T) {
	s := st("x", value.Int(0), "y", value.Int(0))
	for _, e := range []Expr{
		Eq(PrimedVar("x"), TupleOf(Var("x"))),
		Eq(Prime(TupleOf(Var("x"))), Var("x")),
		Ne(Prime(TupleOf(Var("x"), Var("y"))), TupleOf(Var("y"), Var("x"))),
	} {
		sameAnswers(t, e, CompileRaw(e, []string{"x", "y"}), CompilePred(e, []string{"x", "y"}), state.Step{From: s, To: s})
	}
}

// TestCompilePredQuantifiers: an unrolled ∃/∀ keeps QuantE.Eval's
// meaning — binding, shadowing, rigidity under prime — and its order of
// short-circuits and errors, on every state over mappedLayout, with and
// without a successor.
func TestCompilePredQuantifiers(t *testing.T) {
	bits := value.Bits()
	mixed := []value.Value{value.Int(0), value.Empty}
	x, v := Var("x"), Var("v")
	incOK := func(n string) Expr { return Lt(Add(Var(n), IntC(1)), IntC(3)) }
	for _, tc := range []struct {
		name string
		e    Expr
	}{
		{"bound-state-name", Exists("b", bits, Eq(Var("b"), v))},
		{"bound-state-name-primed", Forall("b", bits, Eq(PrimedVar("b"), Var("b")))},
		{"bound-seq-name", Exists("q", value.Seqs(bits, 1), Eq(Var("q"), Var("s1")))},
		{"nested-reuse", Exists("x", bits, And(
			Forall("x", value.Seqs(bits, 1), Le(Len(x), IntC(1))),
			Eq(x, v)))},
		{"nested-reuse-inner-reads", Forall("x", bits, Exists("x", bits, Eq(x, Var("b"))))},
		{"nested-distinct", Exists("x", bits, Forall("y", bits, Or(Eq(x, Var("y")), Ne(x, v))))},
		{"empty-exists", Exists("x", nil, Eq(Head(EmptySeq), x))},
		{"empty-forall", Forall("x", nil, Eq(Head(EmptySeq), x))},
		{"primed-body", Exists("x", bits, Eq(PrimedVar("v"), x))},
		{"primed-guarded", Forall("x", bits, Implies(Eq(x, Var("b")), Eq(PrimedVar("b"), x)))},
		{"under-prime", Prime(Exists("x", bits, Eq(x, v)))},
		{"under-prime-rigid", Exists("x", bits, Prime(Eq(x, v)))},
		{"witness-before-error", Exists("x", mixed, incOK("x"))},
		{"error-before-witness", Exists("x", []value.Value{value.Empty, value.Int(0)}, incOK("x"))},
		{"counterexample-before-error", Forall("x", []value.Value{value.Int(5), value.Empty}, incOK("x"))},
		{"error-after-holding", Forall("x", mixed, incOK("x"))},
		{"error-only-where-reached", Exists("x", mixed, Or(Eq(Var("b"), IntC(1)), incOK("x")))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			domains := mappedDomains()
			var states []*state.State
			value.ForEachAssignment(mappedLayout, domains, func(asgn map[string]value.Value) bool {
				states = append(states, state.New(asgn))
				return true
			})
			decided, defined := 0, 0
			for i, s := range states {
				// Each state with no successor, itself, and a far one.
				for _, to := range []*state.State{nil, s, states[(i*7+3)%len(states)]} {
					step := state.Step{From: s, To: to}
					if sameCompiled(t, tc.e, step) {
						decided++
					}
					if _, err := EvalBool(tc.e, step, nil); err == nil {
						defined++
					}
				}
			}
			// The compiled closure falls back nowhere the interpreter
			// succeeds.
			if decided != defined {
				t.Fatalf("the compiled closure decided %d steps, the interpreter %d", decided, defined)
			}
		})
	}
}

// TestCompiledQuantifierDoesNotAllocate: an unrolled quantifier binds no
// rigid variable at run time, where the interpreter allocates a binding per
// domain element.
func TestCompiledQuantifierDoesNotAllocate(t *testing.T) {
	e := Exists("x", value.Ints(0, 3), And(Eq(Var("x"), Var("v")), Unchanged("b", "q")))
	s := mappedState(mappedDomains(), func(int) int { return 1 })
	step := state.Step{From: s, To: s}
	p := CompilePred(e, mappedLayout)
	if ok, err := p(step); err != nil || !ok {
		t.Fatalf("compiled %v, %v; want true", ok, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = p(step) }); n != 0 {
		t.Fatalf("compiled quantifier allocates %v times per evaluation", n)
	}
}

// quantDecoder extends enabledDecoder's grammar with bounded quantifiers
// whose bound name is fresh (x) or a state variable (b, q), over empty,
// bit, sequence and mixed domains, with bodies that read the bound name
// unprimed and primed and fail on some of its values.
type quantDecoder struct{ enabledDecoder }

var quantDomains = [][]value.Value{
	nil,
	value.Bits(),
	value.Seqs(value.Bits(), 1),
	{value.Int(0), value.Empty, value.Int(1)},
	{value.Tuple(value.Int(1)), value.Int(1)},
}

func (d *quantDecoder) atom(n string) Expr {
	x := Var(n)
	switch d.next(7) {
	case 0:
		return Eq(x, Var("b"))
	case 1:
		return Eq(PrimedVar(n), Var("v"))
	case 2:
		return Lt(Add(x, IntC(1)), IntC(2))
	case 3:
		return Eq(Head(x), Var("v"))
	case 4:
		return Eq(Len(x), IntC(int64(d.next(2))))
	case 5:
		return Eq(x, Tail(Var("q")))
	default:
		return d.action(d.next(2))
	}
}

func (d *quantDecoder) pred(depth int, n string) Expr {
	op := d.next(8)
	if depth == 0 {
		op %= 2
	}
	switch op {
	case 0, 1:
		return d.atom(n)
	case 2:
		return And(d.pred(depth-1, n), d.pred(depth-1, n))
	case 3:
		return Or(d.pred(depth-1, n), d.pred(depth-1, n))
	case 4:
		return Not(d.pred(depth-1, n))
	case 5:
		return Prime(d.pred(depth-1, n))
	default:
		name := []string{"x", "b", "q"}[d.next(3)]
		dom := quantDomains[d.next(len(quantDomains))]
		if d.next(2) == 0 {
			return Exists(name, dom, d.pred(depth-1, name))
		}
		return Forall(name, dom, d.pred(depth-1, name))
	}
}

// wideBits returns four values of b whose codes lie past maxMemoCells, so
// a memo reading b cannot hold them at any table size. Filling b's
// dictionary that far happens once per process.
var wideBits = sync.OnceValue(func() []value.Value {
	var out []value.Value
	for i := int64(0); i < maxMemoCells+4; i++ {
		v := value.Int(1000 + i)
		c := state.New(map[string]value.Value{"b": v}).CodeAt(0)
		if i >= maxMemoCells {
			if c < maxMemoCells {
				panic("b's dictionary did not grow past maxMemoCells")
			}
			out = append(out, v)
		}
	}
	return out
})

// TestMemoPastCapAddsNoAllocation: a key no table can hold runs the
// wrapped closure unmemoized and allocates nothing beyond what the closure
// does, for a value memo and for a predicate memo whose closure fails.
func TestMemoPastCapAddsNoAllocation(t *testing.T) {
	st := state.Step{From: state.New(map[string]value.Value{"b": wideBits()[0]})}
	var rs slotSet
	rs.add(mkSlot(0, false))
	val := func(st state.Step) (value.Value, error) { return value.Tuple(st.From.At(0)), nil }
	pred := func(state.Step) (bool, error) { return false, errCompiled }
	mval, mpred := memoVal(&rs, val), memoPred(&rs, pred)
	for _, tc := range []struct {
		name      string
		raw, memo func()
	}{
		{"value", func() { _, _ = val(st) }, func() { _, _ = mval(st) }},
		{"failing predicate", func() { _, _ = pred(st) }, func() { _, _ = mpred(st) }},
	} {
		raw, memo := testing.AllocsPerRun(100, tc.raw), testing.AllocsPerRun(100, tc.memo)
		if memo > raw {
			t.Errorf("%s: %v allocations per past-cap evaluation, the closure alone %v", tc.name, memo, raw)
		}
	}
}

// FuzzCompilePred holds CompilePred to EvalBool on a decoded predicate and
// decoded steps over mappedLayout: the raw compiled closure never decides
// where the interpreter fails or disagrees, and the wrapped predicate gives
// the interpreter's verdict or error text. One compilation evaluates every
// step twice, so the second round answers from its memos; some steps bind b
// to a value whose code no memo table can hold.
func FuzzCompilePred(f *testing.F) {
	domains := mappedDomains()
	wide := wideBits()
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &quantDecoder{enabledDecoder{data: data}}
		decodeState := func() *state.State {
			s := mappedState(domains, d.next)
			if i := d.next(len(wide) + 4); i < len(wide) {
				s = s.With("b", wide[i])
			}
			return s
		}
		st := state.Step{From: mappedState(domains, d.next)}
		if to := mappedState(domains, d.next); d.next(4) != 0 {
			st.To = to
		}
		e := d.pred(4, "x")
		steps := []state.Step{st}
		for n := d.next(6); n > 0; n-- {
			st := state.Step{From: decodeState()}
			if d.next(4) != 0 {
				st.To = decodeState()
			}
			steps = append(steps, st)
		}
		raw, p := CompileRaw(e, mappedLayout), CompilePred(e, mappedLayout)
		for round := 0; round < 2; round++ {
			for _, st := range steps {
				sameAnswers(t, e, raw, p, st)
			}
		}
	})
}

// TestCompilePredQuantifierOverBudget: a quantifier whose unrolling would
// exceed maxUnrolledBodies is interpreted whole, with the same answers.
func TestCompilePredQuantifierOverBudget(t *testing.T) {
	big := value.Ints(0, maxUnrolledBodies)
	s := mappedState(mappedDomains(), func(int) int { return 1 })
	for _, e := range []Expr{
		Exists("x", big, Eq(Var("x"), Add(Var("v"), IntC(maxUnrolledBodies-1)))),
		Forall("x", big, Ge(Var("x"), Var("v"))),
		// The outer unrolling spends the budget the inner one needs.
		Exists("y", value.Ints(0, 1), Forall("x", value.Ints(0, maxUnrolledBodies/2), Ge(Add(Var("x"), Var("y")), IntC(0)))),
	} {
		if !sameCompiled(t, e, state.Step{From: s}) {
			t.Fatalf("%s: the compiled closure did not decide", e)
		}
	}
}

// val decodes a value term over mappedLayout: variable reads, primed or
// not, constants of several kinds, Fig. 9's mapped queue, sequence and
// arithmetic operators that fail on some arguments, conditionals, tuples,
// primes and the predicates of quantDecoder read as booleans.
func (d *quantDecoder) val(depth int) Expr {
	op := d.next(12)
	if depth == 0 {
		op %= 4
	}
	switch op {
	case 0:
		return Var(mappedLayout[d.next(len(mappedLayout))])
	case 1:
		return PrimedVar(mappedLayout[d.next(len(mappedLayout))])
	case 2:
		return Const([]value.Value{value.Int(0), value.Int(1), value.Empty, value.True, value.Str("a"), value.Tuple(value.Int(1))}[d.next(6)])
	case 3:
		return mappedQueue()
	case 4:
		return Concat(d.val(depth-1), d.val(depth-1))
	case 5:
		return []func(Expr) Expr{Head, Tail, Len}[d.next(3)](d.val(depth - 1))
	case 6:
		return []func(a, b Expr) Expr{Add, Sub, Mod}[d.next(3)](d.val(depth-1), d.val(depth-1))
	case 7:
		return If(d.pred(1, "x"), d.val(depth-1), d.val(depth-1))
	case 8:
		return TupleOf(d.val(depth-1), d.val(depth-1))
	case 9:
		return Prime(d.val(depth - 1))
	case 10:
		return AppendTo(d.val(depth-1), d.val(depth-1))
	default:
		return d.pred(depth-1, "x")
	}
}

// FuzzCompileVal holds CompileVal to Expr.Eval on a decoded value term and
// decoded steps over mappedLayout: the same value, or both fail with the
// same error text. Every step is evaluated twice, so the second round
// answers from the compiled memos; some steps bind b to a value whose code
// no memo table can hold.
func FuzzCompileVal(f *testing.F) {
	for _, seed := range []string{"", "\x03", "\x04\x03\x01\x02", "\x07\x00\x00\x03\x05\x01", "\x0b\x06\x02\x05\x05", "\x05\x00\x02\x03\x09\x02\x02"} {
		f.Add([]byte(seed))
	}
	domains := mappedDomains()
	wide := wideBits()
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &quantDecoder{enabledDecoder{data: data}}
		e := d.val(4)
		var steps []state.Step
		for n := d.next(6) + 1; n > 0; n-- {
			st := state.Step{From: mappedState(domains, d.next)}
			if i := d.next(len(wide) + 4); i < len(wide) {
				st.From = st.From.With("b", wide[i])
			}
			if d.next(4) != 0 {
				st.To = mappedState(domains, d.next)
			}
			steps = append(steps, st)
		}
		cv := CompileVal(e, mappedLayout)
		for round := 0; round < 2; round++ {
			for _, st := range steps {
				want, wantErr := e.Eval(st, nil)
				got, gotErr := cv(st)
				switch {
				case (gotErr == nil) != (wantErr == nil):
					t.Fatalf("%s on %s: CompileVal error %v, Eval error %v", e, stepString(st), gotErr, wantErr)
				case gotErr != nil && gotErr.Error() != wantErr.Error():
					t.Fatalf("%s on %s: CompileVal error %q, Eval error %q", e, stepString(st), gotErr, wantErr)
				case gotErr == nil && !got.Equal(want):
					t.Fatalf("%s on %s: CompileVal %s, Eval %s", e, stepString(st), got, want)
				}
			}
		}
	})
}
