package reduce

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// Symmetry declares a data-value permutation group under which a system's
// behavior set is invariant: every permutation of Values, applied
// pointwise to the values of the scoped variables Vars (recursively inside
// tuples/sequences). This is the classic scalarset symmetry: in the queue
// specs the transmitted data values are interchangeable because no formula
// compares them against literals or orders them.
//
// Declarations are claims, not facts: Validate checks them against the
// system before any reduced exploration, and CheckValueInvariant checks
// individual property formulas. The canonicalizer then maps each state to
// a canonical representative of its group orbit.
type Symmetry struct {
	// Values is the interchangeable data-value orbit (at least 2 values
	// for the group to be nontrivial).
	Values []value.Value
	// Vars lists the variables whose values range over Values (directly or
	// inside tuple values).
	Vars []string
}

func (sym *Symmetry) nontrivial() bool {
	return sym != nil && len(sym.Values) >= 2 && len(sym.Vars) >= 1
}

// desc renders the declaration canonically for cache keys.
func (sym *Symmetry) desc() string {
	var sb strings.Builder
	sb.WriteString("  sym-values=[")
	for i, v := range sym.Values {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(v.String())
	}
	sb.WriteString("] vars=[")
	sb.WriteString(strings.Join(sym.sortedVars(), ","))
	sb.WriteString("]\n")
	return sb.String()
}

func (sym *Symmetry) sortedVars() []string {
	out := append([]string(nil), sym.Vars...)
	sort.Strings(out)
	return out
}

func (sym *Symmetry) scope() map[string]bool {
	m := make(map[string]bool, len(sym.Vars))
	for _, v := range sym.Vars {
		m[v] = true
	}
	return m
}

// inValues reports whether v equals a member of the declared orbit.
func (sym *Symmetry) inValues(v value.Value) bool { return sym.index(v) >= 0 }

// index returns the position of v in Values, or -1 if v is not an orbit
// value.
func (sym *Symmetry) index(v value.Value) int {
	for i, w := range sym.Values {
		if w.Equal(v) {
			return i
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Canonicalization

// Canonicalizer maps states to canonical representatives of their group
// orbits. Build one with Config.Canonicalizer; it is safe for concurrent
// use from exploration workers.
//
// Canon memoizes its answers by the scoped slots' value codes (see
// layoutMemo), so each distinct scoped projection is relabeled once.
type Canonicalizer struct {
	sym  *Symmetry
	vars []string // sorted scoped vars, the deterministic scan order
	sab  *Sabotage

	mu      sync.Mutex                    // serializes additions to layouts
	layouts atomic.Pointer[[]*layoutMemo] // copy-on-write, one per layout seen
}

// Canonicalizer compiles the config's symmetry declaration into a reusable
// canonicalizer, or nil when symmetry reduction is inactive.
func (c *Config) Canonicalizer() *Canonicalizer {
	if !c.Active() {
		return nil
	}
	cz := &Canonicalizer{sym: c.Symmetry, vars: c.Symmetry.sortedVars(), sab: c.Sabotage}
	cz.layouts.Store(new([]*layoutMemo))
	return cz
}

// A layoutMemo remembers Canon's answers for the states of one layout.
//
// Relabeling reads nothing but the scoped variables' values, and a code
// stands for one value of its variable for the whole process (state
// dictionaries are per variable name and append-only). So the codes of the
// scoped slots, in scan order, decide both whether a state is canonical and
// the canonical codes of those slots when it is not: the memo is exact.
// Its entries number at most the distinct scoped projections of the states
// canonicalized, never more than the states themselves, so it needs no cap.
type layoutMemo struct {
	lay state.Layout
	pos []int // positions of the scoped variables the layout binds, in scan order

	mu    sync.RWMutex
	codes map[string][]uint32 // by the scoped slots' codes; nil: already canonical
}

// memoFor returns the memo of s's layout, making it on first sight.
func (cz *Canonicalizer) memoFor(s *state.State) *layoutMemo {
	lay := s.Layout()
	if m := cz.findMemo(lay); m != nil {
		return m
	}
	cz.mu.Lock()
	defer cz.mu.Unlock()
	if m := cz.findMemo(lay); m != nil {
		return m
	}
	m := &layoutMemo{lay: lay, codes: map[string][]uint32{}}
	for _, name := range cz.vars {
		if p, ok := s.PosOf(name); ok {
			m.pos = append(m.pos, p)
		}
	}
	// The full slice expression makes append copy, so a reader ranging over
	// the old slice never sees this write.
	old := *cz.layouts.Load()
	ms := append(old[:len(old):len(old)], m)
	cz.layouts.Store(&ms)
	return m
}

func (cz *Canonicalizer) findMemo(lay state.Layout) *layoutMemo {
	for _, m := range *cz.layouts.Load() {
		if m.lay == lay {
			return m
		}
	}
	return nil
}

// Canon returns the canonical representative of s's orbit: s itself when
// it is already canonical, else a new state. It keeps nothing of s, so s
// may be a scratch state its caller overwrites afterwards.
//
// First-occurrence relabeling is already canonical: scanning the scoped
// variables in sorted order (recursing left-to-right through tuples), the
// j-th distinct orbit value encountered is renamed to Values[j]. Any two
// states in the same value orbit produce the same relabeled state, and
// relabeling is idempotent. Canon looks the answer up by the scoped slots'
// codes and relabels only on a miss.
func (cz *Canonicalizer) Canon(s *state.State) *state.State {
	if cz == nil {
		return s
	}
	m := cz.memoFor(s)
	var buf [64]byte
	key := buf[:0]
	for _, p := range m.pos {
		key = binary.LittleEndian.AppendUint32(key, s.CodeAt(p))
	}
	m.mu.RLock()
	codes, hit := m.codes[string(key)]
	m.mu.RUnlock()
	if hit {
		if codes == nil {
			return s
		}
		return s.WithCodes(m.pos, codes)
	}
	t := cz.relabel(s)
	if t != s {
		codes = make([]uint32, len(m.pos))
		for j, p := range m.pos {
			codes[j] = t.CodeAt(p)
		}
	}
	m.mu.Lock()
	m.codes[string(key)] = codes
	m.mu.Unlock()
	return t
}

// relabel computes Canon's answer from the values: the memo's miss path,
// and the oracle the memo is tested against. It returns s when s is
// already canonical.
func (cz *Canonicalizer) relabel(s *state.State) *state.State {
	// src/dst record the relabeling discovered so far; orbit sizes are tiny
	// (a handful of data values), so linear scans beat any map.
	var src, dst []value.Value
	collapse := cz.sab != nil && cz.sab.CollapseValues
	skipTuples := cz.sab != nil && cz.sab.SkipTupleValues
	var mapVal func(v value.Value) value.Value
	mapVal = func(v value.Value) value.Value {
		if v.Kind() == value.KindTuple {
			if skipTuples {
				return v
			}
			elems := v.Elems()
			changed := false
			for i := range elems {
				nv := mapVal(elems[i])
				if !nv.Equal(elems[i]) {
					changed = true
				}
				elems[i] = nv
			}
			if !changed {
				return v
			}
			return value.Tuple(elems...)
		}
		for i := range src {
			if src[i].Equal(v) {
				return dst[i]
			}
		}
		if cz.sym.inValues(v) {
			target := cz.sym.Values[len(src)]
			if collapse {
				target = cz.sym.Values[0]
			}
			src = append(src, v)
			dst = append(dst, target)
			return target
		}
		return v
	}
	var updates map[string]value.Value
	for _, name := range cz.vars {
		v, ok := s.Get(name)
		if !ok {
			continue
		}
		nv := mapVal(v)
		if !nv.Equal(v) {
			if updates == nil {
				updates = make(map[string]value.Value, len(cz.vars))
			}
			updates[name] = nv
		}
	}
	if updates == nil {
		return s
	}
	return s.WithAll(updates)
}

// ---------------------------------------------------------------------------
// Validation

// Validate checks the declaration against a system: components, step
// constraints (as named expressions), and variable domains. An error means
// the group is not provably a symmetry of the system and reduction under it
// would be unsound.
func (sym *Symmetry) Validate(comps []*spec.Component, steps []NamedExpr, domains map[string][]value.Value) error {
	if !sym.nontrivial() {
		return nil
	}
	if err := sym.validateShape(); err != nil {
		return err
	}
	if err := sym.validateValueDomains(domains); err != nil {
		return err
	}
	check := func(ctx string, e form.Expr) error {
		if e == nil {
			return nil
		}
		if err := sym.CheckValueInvariant(e); err != nil {
			return fmt.Errorf("%s: %w", ctx, err)
		}
		return nil
	}
	for _, c := range comps {
		if err := check(fmt.Sprintf("component %s Init", c.Name), c.Init); err != nil {
			return err
		}
		for _, a := range c.Actions {
			if err := check(fmt.Sprintf("component %s action %s", c.Name, a.Name), a.Def); err != nil {
				return err
			}
		}
		for _, f := range c.Fairness {
			if err := check(fmt.Sprintf("component %s fairness action", c.Name), f.Action); err != nil {
				return err
			}
			if f.Sub != nil {
				if err := check(fmt.Sprintf("component %s fairness subscript", c.Name), f.Sub); err != nil {
					return err
				}
			}
		}
	}
	for _, sc := range steps {
		if err := check("step constraint "+sc.Name, sc.E); err != nil {
			return err
		}
	}
	return nil
}

// NamedExpr pairs an expression with a diagnostic name; ts converts its
// step constraints into this form so reduce need not depend on ts.
type NamedExpr struct {
	Name string
	E    form.Expr
}

func (sym *Symmetry) validateShape() error {
	for i, v := range sym.Values {
		for _, w := range sym.Values[i+1:] {
			if v.Equal(w) {
				return fmt.Errorf("symmetry: duplicate value %s in Values", v)
			}
		}
		if v.Kind() == value.KindTuple {
			return fmt.Errorf("symmetry: Values must be atoms, got tuple %s", v)
		}
		// CheckValueInvariant takes a boolean subterm's truth value to be
		// checked on its own, never as an orbit value: with TRUE and FALSE
		// in the orbit, p' = (p = p) would pass although it moves with p.
		if v.Kind() == value.KindBool {
			return fmt.Errorf("symmetry: Values must not be booleans, got %s", v)
		}
	}
	for i, v := range sym.Vars {
		for _, w := range sym.Vars[i+1:] {
			if v == w {
				return fmt.Errorf("symmetry: duplicate variable %q in Vars", v)
			}
		}
	}
	return nil
}

// validateValueDomains checks that every scoped variable has a declared
// domain closed under permutations of Values.
func (sym *Symmetry) validateValueDomains(domains map[string][]value.Value) error {
	for _, name := range sym.sortedVars() {
		dom := domains[name]
		if len(dom) == 0 {
			return fmt.Errorf("symmetry: scoped variable %q has no declared domain", name)
		}
		if v, sw, ok := sym.escape(dom); ok {
			return fmt.Errorf("symmetry: domain of %q is not closed under value permutations: %s maps to %s, which is outside the domain", name, v, sw)
		}
	}
	return nil
}

// escape returns an element of dom and its image under a transposition of
// two adjacent orbit values (recursively inside tuples) when that image is
// outside dom. It finds none exactly when dom is closed under permutations
// of Values: adjacent transpositions generate the full symmetric group.
func (sym *Symmetry) escape(dom []value.Value) (v, image value.Value, ok bool) {
	for i := 0; i+1 < len(sym.Values); i++ {
		a, b := sym.Values[i], sym.Values[i+1]
		for _, v := range dom {
			if sw := swapAtoms(v, a, b); !containsValue(dom, sw) {
				return v, sw, true
			}
		}
	}
	return value.Value{}, value.Value{}, false
}

// swapAtoms applies the transposition a <-> b to v, recursing into tuples.
func swapAtoms(v, a, b value.Value) value.Value {
	if v.Kind() == value.KindTuple {
		elems := v.Elems()
		for i := range elems {
			elems[i] = swapAtoms(elems[i], a, b)
		}
		return value.Tuple(elems...)
	}
	if v.Equal(a) {
		return b
	}
	if v.Equal(b) {
		return a
	}
	return v
}

func containsValue(dom []value.Value, v value.Value) bool {
	for _, w := range dom {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

// CheckValueInvariant checks structurally that e's truth value is invariant
// under permutations of Values applied to the scoped variables. The rules
// are conservative (they may reject an invariant formula, never accept a
// non-invariant one):
//
//   - Ordering comparisons (<, <=, >, >=) must not touch scoped values:
//     permutations do not preserve order. Len(seq) of a scoped sequence is
//     permutation-invariant and therefore does NOT count as touching.
//   - Arithmetic must not touch scoped values (1 - x is not invariant).
//   - Equality/inequality may relate two scope-touching sides (π applies to
//     both), but not a scope-touching side with a literal from Values or
//     with a non-scoped variable: val' = 1 and val' = sig pin orbit values.
//     It is also decided side by side, through IF branches and aligned
//     tuple components, and no pair of sides that touches the scope may
//     carry an unscoped variable or a computed int in a value position:
//     ⟨val, sig⟩ = ⟨sig, val'⟩ and val = Len(q) pin orbit values too.
//   - A quantifier whose domain overlaps Values must range over a
//     permutation-closed domain, and its bound variable becomes scoped in
//     the body (∃ v ∈ Values: val' = v is invariant; ∃ v ∈ {0}: val' = v
//     is not).
//
// All formulas of the queue/handshake specs pass these rules; formulas that
// pin, order, or do arithmetic on data values are rejected.
func (sym *Symmetry) CheckValueInvariant(e form.Expr) error {
	if !sym.nontrivial() {
		return nil
	}
	return sym.checkValue(e, sym.scope())
}

// CheckFormulaInvariant applies CheckValueInvariant to every expression of
// the temporal formula f: its state predicates, and the actions and
// subscripts of its boxes and WF/SF conditions. A formula of another kind
// (hiding, for one) is rejected.
func (sym *Symmetry) CheckFormulaInvariant(f form.Formula) error {
	if !sym.nontrivial() {
		return nil
	}
	var exprs []form.Expr
	var subs []form.Formula
	switch x := f.(type) {
	case form.PredF:
		exprs = []form.Expr{x.P}
	case form.ActBoxF:
		exprs = []form.Expr{x.A, x.Sub}
	case form.FairF:
		exprs = []form.Expr{x.A, x.Sub}
	case form.AlwaysF:
		subs = []form.Formula{x.F}
	case form.EventuallyF:
		subs = []form.Formula{x.F}
	case form.NotFm:
		subs = []form.Formula{x.F}
	case form.ImpliesFmN:
		subs = []form.Formula{x.A, x.B}
	case form.AndFm:
		subs = x.Fs
	case form.OrFm:
		subs = x.Fs
	default:
		return fmt.Errorf("formula %s: no invariance rule for its kind", f)
	}
	for _, e := range exprs {
		if err := sym.CheckValueInvariant(e); err != nil {
			return err
		}
	}
	for _, g := range subs {
		if err := sym.CheckFormulaInvariant(g); err != nil {
			return err
		}
	}
	return nil
}

// checkValue applies the rules to the nodes of e in pre-order, left to
// right, and returns the first violation. A quantifier's body is checked
// under the scope quantScope gives it.
func (sym *Symmetry) checkValue(e form.Expr, scope map[string]bool) error {
	var err error
	form.Walk(e, func(n form.Expr) bool {
		if err != nil {
			return false
		}
		switch x := n.(type) {
		case form.CmpE:
			err = sym.checkCmp(x, scope)
		case form.ArithE:
			if sym.touches(x.A, scope) || sym.touches(x.B, scope) {
				err = fmt.Errorf("arithmetic %s touches symmetric values; permutations do not commute with arithmetic", x)
			}
		case form.QuantE:
			if domainOverlaps(x.Domain, sym.Values) {
				if _, _, open := sym.escape(x.Domain); open {
					err = fmt.Errorf("quantifier over %q ranges over a domain not closed under value permutations", x.Name)
					return false
				}
			}
			err = sym.checkValue(x.Body, sym.quantScope(x, scope))
			return false
		}
		return err == nil
	})
	return err
}

// checkCmp applies the ordering and equality rules to one comparison.
func (sym *Symmetry) checkCmp(x form.CmpE, scope map[string]bool) error {
	ta := sym.touches(x.A, scope)
	tb := sym.touches(x.B, scope)
	if !ta && !tb {
		return nil
	}
	if x.Op != form.OpEq && x.Op != form.OpNe {
		return fmt.Errorf("ordering comparison %s touches symmetric values; permutations do not preserve order", x)
	}
	if sym.constMentionsValues(x.A) || sym.constMentionsValues(x.B) {
		return fmt.Errorf("comparison %s pins a symmetric value against a literal", x)
	}
	if ta != tb {
		// One side is in the orbit's scope, the other is not: the
		// unscoped side must be constant under the permutation, i.e.
		// mention no variables outside Len(·) subtrees.
		other := x.B
		if tb {
			other = x.A
		}
		if mentionsBareVar(other) {
			return fmt.Errorf("comparison %s relates a symmetric value to an unscoped variable", x)
		}
	}
	return sym.checkSides(x, x.A, x.B, scope)
}

// checkSides decides the equality x side by side, through IF branches
// (their condition is a boolean the walk checks on its own) and aligned
// tuple components, with primes pushed into tuples. Of each pair of sides that
// touches the scope, neither may carry a value that a permutation leaves
// in place while it moves the other side's: see fixedValue.
func (sym *Symmetry) checkSides(x form.CmpE, a, b form.Expr, scope map[string]bool) error {
	a, b = pushPrime(a), pushPrime(b)
	if c, ok := a.(form.IfE); ok {
		if err := sym.checkSides(x, c.T, b, scope); err != nil {
			return err
		}
		return sym.checkSides(x, c.E, b, scope)
	}
	if _, ok := b.(form.IfE); ok {
		return sym.checkSides(x, b, a, scope)
	}
	if ta, ok := a.(form.TupleE); ok {
		if tb, ok := b.(form.TupleE); ok && len(ta.Xs) == len(tb.Xs) {
			for i := range ta.Xs {
				if err := sym.checkSides(x, ta.Xs[i], tb.Xs[i], scope); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if (sym.touches(a, scope) || sym.touches(b, scope)) && (sym.fixedValue(a, scope) || sym.fixedValue(b, scope)) {
		return fmt.Errorf("comparison %s relates a symmetric value to a value that permutations leave in place", x)
	}
	return nil
}

// pushPrime rewrites a primed tuple as the tuple of primes.
func pushPrime(e form.Expr) form.Expr {
	p, ok := e.(form.PrimeE)
	if !ok {
		return e
	}
	t, ok := p.X.(form.TupleE)
	if !ok {
		return e
	}
	xs := make([]form.Expr, len(t.Xs))
	for i, c := range t.Xs {
		xs[i] = form.Prime(c)
	}
	return form.TupleE{Xs: xs}
}

// fixedValue reports whether a value position of e reads an unscoped
// variable or computes an int (Len, arithmetic): a value that could equal
// an orbit value and that a permutation of the scoped variables does not
// move. IF conditions and boolean subterms are not value positions.
func (sym *Symmetry) fixedValue(e form.Expr, scope map[string]bool) bool {
	found := false
	form.Walk(e, func(n form.Expr) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case form.VarE:
			found = !scope[x.Name]
		case form.SeqUnE:
			found = x.Op == form.OpLen
		case form.ArithE:
			found = true
		case form.IfE:
			found = sym.fixedValue(x.T, scope) || sym.fixedValue(x.E, scope)
			return false
		case form.ConstE, form.PrimeE, form.TupleE, form.ConcatE:
		default:
			return false // a boolean, whose truth value is checked on its own
		}
		return !found
	})
	return found
}

// quantScope returns the scope of q's body: a bound variable whose domain
// overlaps Values is scoped there.
func (sym *Symmetry) quantScope(q form.QuantE, scope map[string]bool) map[string]bool {
	if !domainOverlaps(q.Domain, sym.Values) {
		return scope
	}
	inner := make(map[string]bool, len(scope)+1)
	for k := range scope {
		inner[k] = true
	}
	inner[q.Name] = true
	return inner
}

// touches reports whether e's value can depend on a permutation of the
// scoped variables' data values. Len(·) is permutation-invariant, so a
// Len subtree never touches regardless of its contents.
func (sym *Symmetry) touches(e form.Expr, scope map[string]bool) bool {
	found := false
	form.Walk(e, func(n form.Expr) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case form.VarE:
			found = scope[x.Name]
		case form.SeqUnE:
			return x.Op != form.OpLen
		case form.QuantE:
			found = sym.touches(x.Body, sym.quantScope(x, scope))
			return false
		}
		return true
	})
	return found
}

// mentionsBareVar reports whether e contains a variable occurrence outside
// Len(·) subtrees (whose value could pin a permuted data value).
func mentionsBareVar(e form.Expr) bool {
	found := false
	form.Walk(e, func(n form.Expr) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case form.VarE:
			found = true
		case form.SeqUnE:
			return x.Op != form.OpLen
		}
		return true
	})
	return found
}

// constMentionsValues reports whether e contains a constant whose value
// (recursively) includes an atom from the orbit.
func (sym *Symmetry) constMentionsValues(e form.Expr) bool {
	found := false
	form.Walk(e, func(n form.Expr) bool {
		if found {
			return false
		}
		if c, ok := n.(form.ConstE); ok && sym.valueHasOrbitAtom(c.V) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (sym *Symmetry) valueHasOrbitAtom(v value.Value) bool {
	if v.Kind() == value.KindTuple {
		for i := 0; i < v.Len(); i++ {
			el, _ := v.At(i)
			if sym.valueHasOrbitAtom(el) {
				return true
			}
		}
		return false
	}
	return sym.inValues(v)
}

func domainOverlaps(dom, values []value.Value) bool {
	for _, d := range dom {
		for _, v := range values {
			if d.Equal(v) {
				return true
			}
		}
	}
	return false
}
