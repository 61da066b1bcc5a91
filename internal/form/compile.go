package form

import (
	"errors"
	"sync"

	"opentla/internal/state"
	"opentla/internal/value"
)

// CompiledPred is a compiled boolean step predicate: the closure-tree form of an
// Expr, specialized to states that bind exactly one fixed variable layout.
// Variable occurrences are resolved to binding positions at compile time, so
// evaluation reads states positionally (state.At) instead of binary-searching
// names, and the stutter-equality shapes that dominate checking — v' = v and
// ⟨v1,…,vn⟩' = ⟨v1,…,vn⟩ from form.Square/Unchanged — run without allocating
// the tuples the interpreter would build. A bounded quantifier ∃/∀ x ∈ D : B
// is unrolled over D into compiled copies of B with x replaced by each
// element, so it binds no rigid variable at run time. A subterm reading at
// most three state slots remembers its answers by the slots' value codes
// (see memo.go), so a step it has seen is answered by a table lookup while
// those codes fit the table's cap.
//
// A CompiledPred is safe for concurrent use: the closure tree is immutable,
// reads only the step it is given, and its memo tables are lock-free for
// readers.
type CompiledPred func(st state.Step) (bool, error)

// errCompiled is the internal sentinel raised by compiled fast paths when
// evaluation cannot complete (kind mismatch, missing successor state, …).
// CompilePred's wrapper converts any compiled-path error into a full
// interpreter evaluation, so callers always observe the interpreter's
// canonical error messages — compiled closures never invent their own.
var errCompiled = errors.New("form: compiled evaluation fell back to the interpreter")

// CompilePred compiles e into a CompiledPred for steps over states binding exactly
// the variables of layout (sorted, as produced by ts.System.Vars or
// state.Vars). The compiled predicate is semantically identical to
// EvalBool(e, st, nil): same verdicts, and on failure the same error
// messages (errors re-derive through the interpreter). Steps whose states do
// not have exactly layout's variables (state.Layout) are evaluated by the
// interpreter, so a mismatched caller degrades to slow-but-correct.
func CompilePred(e Expr, layout []string) CompiledPred {
	lay := state.LayoutOf(layout)
	f := newCompiler(layout).pred(e, false)
	return func(st state.Step) (bool, error) {
		if st.From == nil || st.From.Layout() != lay || (st.To != nil && st.To.Layout() != lay) {
			return EvalBool(e, st, nil)
		}
		b, err := f(st)
		if err != nil {
			return EvalBool(e, st, nil)
		}
		return b, nil
	}
}

// CompiledVal is the value twin of CompiledPred: e compiled for steps over
// one fixed variable layout, safe for concurrent use.
type CompiledVal func(st state.Step) (value.Value, error)

// CompileVal compiles the value expression e for steps over states binding
// exactly the variables of layout, as CompilePred compiles a predicate. The
// compiled value is semantically identical to e.Eval(st, nil): the same
// value, and on failure the same error, which the interpreter re-derives.
// Steps off the layout are interpreted.
func CompileVal(e Expr, layout []string) CompiledVal {
	lay := state.LayoutOf(layout)
	f := newCompiler(layout).val(e, false)
	return func(st state.Step) (value.Value, error) {
		if st.From == nil || st.From.Layout() != lay || (st.To != nil && st.To.Layout() != lay) {
			return e.Eval(st, nil)
		}
		v, err := f(st)
		if err != nil {
			return e.Eval(st, nil)
		}
		return v, nil
	}
}

// LazyPred returns a CompiledPred that compiles e on first evaluation, deriving the
// layout from the first step's From state. It exists for evaluators (monitor
// callbacks) constructed before any state exists; the one-time compilation
// is synchronized, so the result is safe for concurrent workers.
func LazyPred(e Expr) CompiledPred {
	var once sync.Once
	var fn CompiledPred
	return func(st state.Step) (bool, error) {
		once.Do(func() {
			if st.From != nil {
				fn = CompilePred(e, st.From.Vars())
			} else {
				fn = func(st state.Step) (bool, error) { return EvalBool(e, st, nil) }
			}
		})
		return fn(st)
	}
}

// boolFn and valFn are the compiled closure forms of predicates and value
// expressions. primed contexts (inside x') read st.To where unprimed read
// st.From, mirroring PrimeE.Eval's state shift without re-wrapping steps.
type (
	boolFn func(st state.Step) (bool, error)
	valFn  func(st state.Step) (value.Value, error)
)

type compiler struct {
	pos map[string]int
	// unroll is what is left of the budget of quantifier bodies compiled
	// per domain element (see pred); a quantifier that would exceed it is
	// interpreted.
	unroll int
	// reads collects the slots the node being compiled reads; pred and val
	// save it around each node, so every node's set is gathered in the one
	// compilation pass (see memo.go).
	reads slotSet
	// domains holds the declared-domain indexes of the branch compiler's
	// determined assignments, one per variable (see domainIndex).
	domains map[string]*value.Index
}

// maxUnrolledBodies caps the bodies one compilation unrolls for bounded
// quantifiers, nested ones counting once per enclosing element.
const maxUnrolledBodies = 4096

func newCompiler(layout []string) *compiler {
	c := &compiler{pos: make(map[string]int, len(layout)), unroll: maxUnrolledBodies}
	for i, v := range layout {
		c.pos[v] = i
	}
	return c
}

// interpVal is the universal fallback: interpret the subtree. In a primed
// context the step is shifted exactly as PrimeE.Eval does, so nested primes
// and quantifiers behave identically to the interpreter. What the
// interpreter reads is not tracked, so no enclosing node is memoized.
func (c *compiler) interpVal(e Expr, primed bool) valFn {
	c.reads.many = true
	if primed {
		return func(st state.Step) (value.Value, error) {
			return e.Eval(state.Step{From: st.To}, nil)
		}
	}
	return func(st state.Step) (value.Value, error) {
		return e.Eval(st, nil)
	}
}

// pred compiles e as a boolean, memoized by code when it reads few slots
// and is not a fast path already (see memo.go).
func (c *compiler) pred(e Expr, primed bool) boolFn {
	outer := c.reads
	c.reads = slotSet{}
	f, memoize := c.predNode(e, primed)
	if memoize && !c.reads.many {
		f = memoPred(&c.reads, f)
	}
	outer.union(&c.reads)
	c.reads = outer
	return f
}

// val compiles e as a value, memoized like pred.
func (c *compiler) val(e Expr, primed bool) valFn {
	outer := c.reads
	c.reads = slotSet{}
	f, memoize := c.valNode(e, primed)
	if memoize && !c.reads.many {
		f = memoVal(&c.reads, f)
	}
	outer.union(&c.reads)
	c.reads = outer
	return f
}

// predNode compiles the node e as a boolean and reports whether it is
// worth memoizing: constants and the nodes that only convert a memoized
// value are not.
func (c *compiler) predNode(e Expr, primed bool) (boolFn, bool) {
	switch n := e.(type) {
	case ConstE:
		if b, ok := n.V.AsBool(); ok {
			return func(state.Step) (bool, error) { return b, nil }, false
		}
	case AndE:
		fs := make([]boolFn, len(n.Xs))
		for i, x := range n.Xs {
			fs[i] = c.pred(x, primed)
		}
		return func(st state.Step) (bool, error) {
			for _, f := range fs {
				b, err := f(st)
				if err != nil || !b {
					return false, err
				}
			}
			return true, nil
		}, true
	case OrE:
		fs := make([]boolFn, len(n.Xs))
		for i, x := range n.Xs {
			fs[i] = c.pred(x, primed)
		}
		return func(st state.Step) (bool, error) {
			for _, f := range fs {
				b, err := f(st)
				if err != nil || b {
					return b, err
				}
			}
			return false, nil
		}, true
	case NotE:
		f := c.pred(n.X, primed)
		return func(st state.Step) (bool, error) {
			b, err := f(st)
			return !b && err == nil, err
		}, true
	case ImpliesE:
		fa := c.pred(n.A, primed)
		fb := c.pred(n.B, primed)
		return func(st state.Step) (bool, error) {
			a, err := fa(st)
			if err != nil {
				return false, err
			}
			if !a {
				return true, nil
			}
			return fb(st)
		}, true
	case EquivE:
		fa := c.pred(n.A, primed)
		fb := c.pred(n.B, primed)
		return func(st state.Step) (bool, error) {
			a, err := fa(st)
			if err != nil {
				return false, err
			}
			b, err := fb(st)
			if err != nil {
				return false, err
			}
			return a == b, nil
		}, true
	case CmpE:
		return c.cmp(n, primed)
	case QuantE:
		if len(n.Domain) > c.unroll {
			return asBool(c.interpVal(e, primed)), false
		}
		c.unroll -= len(n.Domain)
		// ∃/∀ x ∈ D : B is the disjunction/conjunction of B[d/x] over D in
		// domain order, stopping at the first deciding element or error as
		// QuantE.Eval does. Subst replaces exactly the occurrences the
		// binding would shadow, primed ones included.
		fs := make([]boolFn, len(n.Domain))
		for i, d := range n.Domain {
			fs[i] = c.pred(n.Body.Subst(map[string]Expr{n.Name: Const(d)}), primed)
		}
		exists := n.Exists
		return func(st state.Step) (bool, error) {
			for _, f := range fs {
				b, err := f(st)
				if err != nil {
					return false, err
				}
				if b == exists {
					return exists, nil
				}
			}
			return !exists, nil
		}, true
	}
	return asBool(c.val(e, primed)), false
}

// asBool turns a compiled value into a compiled predicate; a non-boolean
// value fails.
func asBool(f valFn) boolFn {
	return func(st state.Step) (bool, error) {
		v, err := f(st)
		if err != nil {
			return false, err
		}
		b, ok := v.AsBool()
		if !ok {
			return false, errCompiled
		}
		return b, nil
	}
}

// stutterPositions resolves the positions of UNCHANGED f (see StutterVars),
// the zero-allocation fast path for the unchanged checks at the heart of
// [A]_v evaluation.
func (c *compiler) stutterPositions(n CmpE) ([]int, bool) {
	names, ok := StutterVars(n)
	if !ok {
		return nil, false
	}
	ps := make([]int, len(names))
	for i, name := range names {
		p, ok := c.pos[name]
		if !ok {
			return nil, false
		}
		ps[i] = p
	}
	return ps, true
}

// cmp compiles a comparison and reports whether to memoize it. The stutter
// shape f' = f over variable layouts compares codes and is never memoized;
// every other comparison, tuple equality included, evaluates both sides and
// compares the values, and the code-keyed memos spare the repeats.
func (c *compiler) cmp(n CmpE, primed bool) (boolFn, bool) {
	if (n.Op == OpEq || n.Op == OpNe) && !primed {
		if ps, ok := c.stutterPositions(n); ok {
			for _, p := range ps {
				c.reads.add(mkSlot(p, false))
				c.reads.add(mkSlot(p, true))
			}
			neq := n.Op == OpNe
			return func(st state.Step) (bool, error) {
				if st.To == nil {
					return false, errCompiled
				}
				for _, p := range ps {
					if !st.From.EqualAt(st.To, p) {
						return neq, nil
					}
				}
				return !neq, nil
			}, false
		}
	}
	fa := c.val(n.A, primed)
	fb := c.val(n.B, primed)
	op := n.Op
	return func(st state.Step) (bool, error) {
		a, err := fa(st)
		if err != nil {
			return false, err
		}
		b, err := fb(st)
		if err != nil {
			return false, err
		}
		switch op {
		case OpEq:
			return a.Equal(b), nil
		case OpNe:
			return !a.Equal(b), nil
		}
		if a.Kind() != b.Kind() {
			return false, errCompiled
		}
		cv := a.Compare(b)
		switch op {
		case OpLt:
			return cv < 0, nil
		case OpLe:
			return cv <= 0, nil
		case OpGt:
			return cv > 0, nil
		case OpGe:
			return cv >= 0, nil
		}
		return false, errCompiled
	}, true
}

// valNode compiles the node e as a value and reports whether it is worth
// memoizing: constants, variable reads, primes and boolean nodes (memoized
// as predicates) are not.
func (c *compiler) valNode(e Expr, primed bool) (valFn, bool) {
	switch n := e.(type) {
	case ConstE:
		v := n.V
		return func(state.Step) (value.Value, error) { return v, nil }, false
	case VarE:
		p, ok := c.pos[n.Name]
		if !ok {
			// Unknown in the layout: unbound at runtime. (Bound names never
			// get here: unrolling substitutes them, and a quantifier over
			// budget is interpreted whole.)
			return c.interpVal(e, primed), false
		}
		c.reads.add(mkSlot(p, primed))
		if primed {
			return func(st state.Step) (value.Value, error) {
				return st.To.At(p), nil
			}, false
		}
		return func(st state.Step) (value.Value, error) {
			return st.From.At(p), nil
		}, false
	case PrimeE:
		if primed {
			// x'' — the interpreter evaluates the inner prime against a step
			// with no successor state, which always errors.
			return func(state.Step) (value.Value, error) { return value.Value{}, errCompiled }, false
		}
		c.reads.to = true
		f := c.val(n.X, true)
		return func(st state.Step) (value.Value, error) {
			if st.To == nil {
				return value.Value{}, errCompiled
			}
			return f(st)
		}, false
	case AndE, OrE, NotE, ImpliesE, EquivE, CmpE, QuantE:
		f := c.pred(e, primed)
		return func(st state.Step) (value.Value, error) {
			b, err := f(st)
			if err != nil {
				return value.Value{}, err
			}
			return value.Bool(b), nil
		}, false
	case ArithE:
		fa := c.val(n.A, primed)
		fb := c.val(n.B, primed)
		op := n.Op
		return func(st state.Step) (value.Value, error) {
			av, err := fa(st)
			if err != nil {
				return value.Value{}, err
			}
			bv, err := fb(st)
			if err != nil {
				return value.Value{}, err
			}
			a, ok := av.AsInt()
			if !ok {
				return value.Value{}, errCompiled
			}
			b, ok := bv.AsInt()
			if !ok {
				return value.Value{}, errCompiled
			}
			switch op {
			case OpAdd:
				return value.Int(a + b), nil
			case OpSub:
				return value.Int(a - b), nil
			case OpMul:
				return value.Int(a * b), nil
			case OpMod:
				if b <= 0 {
					return value.Value{}, errCompiled
				}
				return value.Int(((a % b) + b) % b), nil
			}
			return value.Value{}, errCompiled
		}, true
	case IfE:
		fc := c.pred(n.C, primed)
		ft := c.val(n.T, primed)
		fe := c.val(n.E, primed)
		return func(st state.Step) (value.Value, error) {
			cond, err := fc(st)
			if err != nil {
				return value.Value{}, err
			}
			if cond {
				return ft(st)
			}
			return fe(st)
		}, true
	case TupleE:
		fs := make([]valFn, len(n.Xs))
		for i, x := range n.Xs {
			fs[i] = c.val(x, primed)
		}
		return func(st state.Step) (value.Value, error) {
			elems := make([]value.Value, len(fs))
			for i, f := range fs {
				v, err := f(st)
				if err != nil {
					return value.Value{}, err
				}
				elems[i] = v
			}
			return value.Tuple(elems...), nil
		}, true
	case SeqUnE:
		f := c.val(n.X, primed)
		op := n.Op
		return func(st state.Step) (value.Value, error) {
			v, err := f(st)
			if err != nil {
				return value.Value{}, err
			}
			switch op {
			case OpHead:
				h, ok := v.Head()
				if !ok {
					return value.Value{}, errCompiled
				}
				return h, nil
			case OpTail:
				t, ok := v.Tail()
				if !ok {
					return value.Value{}, errCompiled
				}
				return t, nil
			case OpLen:
				l := v.Len()
				if l < 0 {
					return value.Value{}, errCompiled
				}
				return value.Int(int64(l)), nil
			}
			return value.Value{}, errCompiled
		}, true
	case ConcatE:
		fa := c.val(n.A, primed)
		fb := c.val(n.B, primed)
		return func(st state.Step) (value.Value, error) {
			a, err := fa(st)
			if err != nil {
				return value.Value{}, err
			}
			b, err := fb(st)
			if err != nil {
				return value.Value{}, err
			}
			cv, ok := a.Concat(b)
			if !ok {
				return value.Value{}, errCompiled
			}
			return cv, nil
		}, true
	}
	// Any future node kinds interpret.
	return c.interpVal(e, primed), false
}
