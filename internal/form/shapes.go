package form

// The readers of the action shapes that several analyses decide alike: the
// interpreter and compiler of ENABLED, the compiled stutter fast path, the
// Disjoint parser, and absint's and vet's write inference all recognise
// these shapes here, so they cannot disagree on what a conjunct means.

// FlattenAnd appends the conjuncts of a (flattening nested AndE) to out.
func FlattenAnd(a Expr, out []Expr) []Expr {
	if and, ok := a.(AndE); ok {
		for _, x := range and.Xs {
			out = FlattenAnd(x, out)
		}
		return out
	}
	return append(out, a)
}

// Assignment recognises x' = e or e = x' with e primeless, which pins the
// next value of x, and returns x and e.
func Assignment(e Expr) (string, Expr, bool) {
	eq, ok := e.(CmpE)
	if !ok || eq.Op != OpEq {
		return "", nil, false
	}
	if name, ok := primedVarName(eq.A); ok && !HasPrimes(eq.B) {
		return name, eq.B, true
	}
	if name, ok := primedVarName(eq.B); ok && !HasPrimes(eq.A) {
		return name, eq.A, true
	}
	return "", nil, false
}

func primedVarName(e Expr) (string, bool) {
	p, ok := e.(PrimeE)
	if !ok {
		return "", false
	}
	v, ok := p.X.(VarE)
	if !ok {
		return "", false
	}
	return v.Name, true
}

// StutterEq reports whether the comparison has the shape f' = f (either
// operand order) for some state function f, that is, whether as an
// equality it keeps f unchanged rather than writing it. The operator is
// not read.
func StutterEq(x CmpE) bool {
	_, ok := stutterArg(x)
	return ok
}

// StutterVars recognises UNCHANGED f, the comparison f' = f (either
// operand order) with f a variable or a tuple of variables, and returns
// f's variables in order. The operator is not read: the compiler reads
// f' ≠ f by the same shape.
func StutterVars(x CmpE) ([]string, bool) {
	f, ok := stutterArg(x)
	if !ok {
		return nil, false
	}
	switch n := f.(type) {
	case VarE:
		return []string{n.Name}, true
	case TupleE:
		out := make([]string, len(n.Xs))
		for i, x := range n.Xs {
			v, ok := x.(VarE)
			if !ok {
				return nil, false
			}
			out[i] = v.Name
		}
		return out, true
	}
	return nil, false
}

// stutterArg returns f when x has the shape f' = f or f = f'.
func stutterArg(x CmpE) (Expr, bool) {
	if p, ok := x.A.(PrimeE); ok && p.X.String() == x.B.String() {
		return x.B, true
	}
	if p, ok := x.B.(PrimeE); ok && p.X.String() == x.A.String() {
		return x.A, true
	}
	return nil, false
}
