package reduce

import (
	"fmt"
	"sort"
	"strings"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// Symmetry declares a permutation group under which a system's behavior set
// is invariant, in two orthogonal parts:
//
//   - Data-value symmetry: every permutation of Values, applied pointwise
//     to the values of the scoped variables Vars (recursively inside
//     tuples/sequences). This is the classic scalarset symmetry: in the
//     queue specs the transmitted data values are interchangeable because
//     no formula compares them against literals or orders them.
//   - Component-block symmetry: the variable tuples in Blocks are
//     interchangeable as wholes (block i's k-th variable swaps roles with
//     block j's k-th variable), the index symmetry of replicated
//     components such as the arbiter's two clients.
//
// Declarations are claims, not facts: Validate checks them against the
// system before any reduced exploration, and CheckValueInvariant /
// CheckBlockInvariant check individual property formulas. The
// canonicalizer then maps each state to a canonical representative of its
// group orbit.
type Symmetry struct {
	// Values is the interchangeable data-value orbit (at least 2 values
	// for the value part to be nontrivial).
	Values []value.Value
	// Vars lists the variables whose values range over Values (directly or
	// inside tuple values).
	Vars []string
	// Blocks lists same-length variable tuples that are interchangeable
	// (at least 2 blocks for the block part to be nontrivial).
	Blocks [][]string
}

func (sym *Symmetry) valueActive() bool {
	return sym != nil && len(sym.Values) >= 2 && len(sym.Vars) >= 1
}

func (sym *Symmetry) blockActive() bool {
	return sym != nil && len(sym.Blocks) >= 2
}

func (sym *Symmetry) nontrivial() bool {
	return sym.valueActive() || sym.blockActive()
}

// desc renders the declaration canonically for cache keys.
func (sym *Symmetry) desc() string {
	var sb strings.Builder
	if sym.valueActive() {
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
	}
	if sym.blockActive() {
		sb.WriteString("  sym-blocks=[")
		for i, b := range sym.Blocks {
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(strings.Join(b, ","))
		}
		sb.WriteString("]\n")
	}
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
func (sym *Symmetry) inValues(v value.Value) bool {
	for _, w := range sym.Values {
		if w.Equal(v) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Canonicalization

// Canonicalizer maps states to canonical representatives of their group
// orbits. Build one with Config.Canonicalizer; it is immutable and safe for
// concurrent use from exploration workers.
type Canonicalizer struct {
	sym        *Symmetry
	vars       []string // sorted scoped vars, the deterministic scan order
	blockPerms [][]int  // all permutations of block indices, identity first
	sab        *Sabotage
}

// Canonicalizer compiles the config's symmetry declaration into a reusable
// canonicalizer, or nil when symmetry reduction is inactive.
func (c *Config) Canonicalizer() *Canonicalizer {
	if !c.Active() {
		return nil
	}
	cz := &Canonicalizer{sym: c.Symmetry, vars: c.Symmetry.sortedVars(), sab: c.Sabotage}
	if c.Symmetry.blockActive() {
		cz.blockPerms = permutations(len(c.Symmetry.Blocks))
	}
	return cz
}

// Canon returns the canonical representative of s's orbit.
//
// For the value part, first-occurrence relabeling is already canonical:
// scanning the scoped variables in sorted order (recursing left-to-right
// through tuples), the j-th distinct orbit value encountered is renamed to
// Values[j]. Any two states in the same value orbit produce the same
// relabeled state, and relabeling is idempotent. For the block part the
// orbit is small (|Blocks|! candidates), so the canonical representative is
// the minimum, by state key, of the relabeled block renames.
func (cz *Canonicalizer) Canon(s *state.State) *state.State {
	if cz == nil {
		return s
	}
	best := cz.relabel(cz.rename(s, 0))
	if len(cz.blockPerms) > 1 {
		bestKey := best.Key()
		for pi := 1; pi < len(cz.blockPerms); pi++ {
			cand := cz.relabel(cz.rename(s, pi))
			if k := cand.Key(); k < bestKey {
				best, bestKey = cand, k
			}
		}
	}
	return best
}

// rename applies the pi-th block permutation to s's variable names (the
// identity for pi == 0 or when block symmetry is inactive). If any block
// variable is unbound in s the rename is skipped — the state is outside the
// block group's domain, so only the value part applies.
func (cz *Canonicalizer) rename(s *state.State, pi int) *state.State {
	if pi == 0 || len(cz.blockPerms) == 0 {
		return s
	}
	perm := cz.blockPerms[pi]
	updates := make(map[string]value.Value)
	for i, blk := range cz.sym.Blocks {
		for k, name := range blk {
			v, ok := s.Get(name)
			if !ok {
				return s
			}
			updates[cz.sym.Blocks[perm[i]][k]] = v
		}
	}
	return s.WithAll(updates)
}

// relabel applies the first-occurrence value relabeling to s.
func (cz *Canonicalizer) relabel(s *state.State) *state.State {
	if !cz.sym.valueActive() {
		return s
	}
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

// permutations returns all permutations of 0..n-1 in lexicographic order
// (identity first).
func permutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(prefix []int, rest []int)
	rec = func(prefix []int, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for i := range rest {
			next := make([]int, 0, len(rest)-1)
			next = append(next, rest[:i]...)
			next = append(next, rest[i+1:]...)
			rec(append(prefix, rest[i]), next)
		}
	}
	rec(nil, base)
	return out
}

// ---------------------------------------------------------------------------
// Validation

// Validate checks the declaration against a system: components, step and
// initial constraints (as named expressions), and variable domains. An
// error means the group is not provably a symmetry of the system and
// reduction under it would be unsound.
func (sym *Symmetry) Validate(comps []*spec.Component, steps, inits []NamedExpr, domains map[string][]value.Value) error {
	if sym == nil || !sym.nontrivial() {
		return nil
	}
	if err := sym.validateShape(); err != nil {
		return err
	}
	if sym.valueActive() {
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
		for _, ic := range inits {
			if err := check("init constraint "+ic.Name, ic.E); err != nil {
				return err
			}
		}
	}
	if sym.blockActive() {
		if err := sym.validateBlocks(comps, steps, inits, domains); err != nil {
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
	if sym.valueActive() {
		seen := make(map[string]bool)
		for i, v := range sym.Values {
			for _, w := range sym.Values[i+1:] {
				if v.Equal(w) {
					return fmt.Errorf("symmetry: duplicate value %s in Values", v)
				}
			}
			if v.Kind() == value.KindTuple {
				return fmt.Errorf("symmetry: Values must be atoms, got tuple %s", v)
			}
			_ = seen
		}
		for i, v := range sym.Vars {
			for _, w := range sym.Vars[i+1:] {
				if v == w {
					return fmt.Errorf("symmetry: duplicate variable %q in Vars", v)
				}
			}
		}
	}
	if len(sym.Blocks) == 1 {
		return fmt.Errorf("symmetry: a single block declares no symmetry; want >= 2 blocks")
	}
	if sym.blockActive() {
		n := len(sym.Blocks[0])
		if n == 0 {
			return fmt.Errorf("symmetry: empty block")
		}
		seen := make(map[string]bool)
		for _, b := range sym.Blocks {
			if len(b) != n {
				return fmt.Errorf("symmetry: blocks have unequal lengths %d and %d", n, len(b))
			}
			for _, v := range b {
				if seen[v] {
					return fmt.Errorf("symmetry: variable %q appears in more than one block position", v)
				}
				seen[v] = true
			}
		}
		if len(sym.Blocks) > 6 {
			return fmt.Errorf("symmetry: %d blocks (max 6; canonicalization enumerates |Blocks|! renames)", len(sym.Blocks))
		}
	}
	return nil
}

// validateValueDomains checks that every scoped variable has a declared
// domain closed under permutations of Values: applying any transposition of
// two orbit values to a domain element (recursively inside tuples) yields
// another domain element. Closure under adjacent transpositions generates
// closure under the full symmetric group.
func (sym *Symmetry) validateValueDomains(domains map[string][]value.Value) error {
	for _, name := range sym.sortedVars() {
		dom := domains[name]
		if len(dom) == 0 {
			return fmt.Errorf("symmetry: scoped variable %q has no declared domain", name)
		}
		for i := 0; i+1 < len(sym.Values); i++ {
			a, b := sym.Values[i], sym.Values[i+1]
			for _, v := range dom {
				sw := swapAtoms(v, a, b)
				if !containsValue(dom, sw) {
					return fmt.Errorf("symmetry: domain of %q is not closed under value permutations: %s maps to %s, which is outside the domain", name, v, sw)
				}
			}
		}
	}
	return nil
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
//   - A quantifier whose domain overlaps Values must range over a
//     permutation-closed domain, and its bound variable becomes scoped in
//     the body (∃ v ∈ Values: val' = v is invariant; ∃ v ∈ {0}: val' = v
//     is not).
//
// All formulas of the queue/handshake specs pass these rules; formulas that
// pin, order, or do arithmetic on data values are rejected.
func (sym *Symmetry) CheckValueInvariant(e form.Expr) error {
	if !sym.valueActive() {
		return nil
	}
	return sym.checkValue(e, sym.scope())
}

func (sym *Symmetry) checkValue(e form.Expr, scope map[string]bool) error {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case form.VarE, form.ConstE:
		return nil
	case form.PrimeE:
		return sym.checkValue(x.X, scope)
	case form.AndE:
		for _, c := range x.Xs {
			if err := sym.checkValue(c, scope); err != nil {
				return err
			}
		}
		return nil
	case form.OrE:
		for _, c := range x.Xs {
			if err := sym.checkValue(c, scope); err != nil {
				return err
			}
		}
		return nil
	case form.NotE:
		return sym.checkValue(x.X, scope)
	case form.ImpliesE:
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.EquivE:
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.CmpE:
		ta := sym.touches(x.A, scope)
		tb := sym.touches(x.B, scope)
		switch x.Op {
		case form.OpLt, form.OpLe, form.OpGt, form.OpGe:
			if ta || tb {
				return fmt.Errorf("ordering comparison %s touches symmetric values; permutations do not preserve order", e)
			}
		case form.OpEq, form.OpNe:
			if ta || tb {
				if sym.constMentionsValues(x.A) || sym.constMentionsValues(x.B) {
					return fmt.Errorf("comparison %s pins a symmetric value against a literal", e)
				}
				if ta != tb {
					// One side is in the orbit's scope, the other is not: the
					// unscoped side must be constant under the permutation,
					// i.e. mention no variables outside Len(·) subtrees.
					other := x.B
					if tb {
						other = x.A
					}
					if mentionsBareVar(other) {
						return fmt.Errorf("comparison %s relates a symmetric value to an unscoped variable", e)
					}
				}
			}
		}
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.ArithE:
		if sym.touches(x.A, scope) || sym.touches(x.B, scope) {
			return fmt.Errorf("arithmetic %s touches symmetric values; permutations do not commute with arithmetic", e)
		}
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.IfE:
		if err := sym.checkValue(x.C, scope); err != nil {
			return err
		}
		if err := sym.checkValue(x.T, scope); err != nil {
			return err
		}
		return sym.checkValue(x.E, scope)
	case form.TupleE:
		for _, c := range x.Xs {
			if err := sym.checkValue(c, scope); err != nil {
				return err
			}
		}
		return nil
	case form.SeqUnE:
		return sym.checkValue(x.X, scope)
	case form.ConcatE:
		if err := sym.checkValue(x.A, scope); err != nil {
			return err
		}
		return sym.checkValue(x.B, scope)
	case form.QuantE:
		inner := scope
		if domainOverlaps(x.Domain, sym.Values) {
			if !sym.domainClosed(x.Domain) {
				return fmt.Errorf("quantifier over %q ranges over a domain not closed under value permutations", x.Name)
			}
			inner = make(map[string]bool, len(scope)+1)
			for k := range scope {
				inner[k] = true
			}
			inner[x.Name] = true
		}
		return sym.checkValue(x.Body, inner)
	default:
		return fmt.Errorf("unsupported expression %T in value-symmetry check", e)
	}
}

// touches reports whether e's value can depend on a permutation of the
// scoped variables' data values. Len(·) is permutation-invariant, so a
// Len subtree never touches regardless of its contents.
func (sym *Symmetry) touches(e form.Expr, scope map[string]bool) bool {
	switch x := e.(type) {
	case form.VarE:
		return scope[x.Name]
	case form.ConstE:
		return false
	case form.PrimeE:
		return sym.touches(x.X, scope)
	case form.SeqUnE:
		if x.Op == form.OpLen {
			return false
		}
		return sym.touches(x.X, scope)
	case form.AndE:
		for _, c := range x.Xs {
			if sym.touches(c, scope) {
				return true
			}
		}
		return false
	case form.OrE:
		for _, c := range x.Xs {
			if sym.touches(c, scope) {
				return true
			}
		}
		return false
	case form.NotE:
		return sym.touches(x.X, scope)
	case form.ImpliesE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.EquivE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.CmpE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.ArithE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.IfE:
		return sym.touches(x.C, scope) || sym.touches(x.T, scope) || sym.touches(x.E, scope)
	case form.TupleE:
		for _, c := range x.Xs {
			if sym.touches(c, scope) {
				return true
			}
		}
		return false
	case form.ConcatE:
		return sym.touches(x.A, scope) || sym.touches(x.B, scope)
	case form.QuantE:
		inner := scope
		if domainOverlaps(x.Domain, sym.Values) {
			inner = make(map[string]bool, len(scope)+1)
			for k := range scope {
				inner[k] = true
			}
			inner[x.Name] = true
		}
		return sym.touches(x.Body, inner)
	default:
		return true // unknown node: assume dependence (conservative)
	}
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

// mentionsBareVar reports whether e contains a variable occurrence outside
// Len(·) subtrees (whose value could pin a permuted data value).
func mentionsBareVar(e form.Expr) bool {
	switch x := e.(type) {
	case form.VarE:
		return true
	case form.ConstE:
		return false
	case form.PrimeE:
		return mentionsBareVar(x.X)
	case form.SeqUnE:
		if x.Op == form.OpLen {
			return false
		}
		return mentionsBareVar(x.X)
	case form.AndE:
		for _, c := range x.Xs {
			if mentionsBareVar(c) {
				return true
			}
		}
		return false
	case form.OrE:
		for _, c := range x.Xs {
			if mentionsBareVar(c) {
				return true
			}
		}
		return false
	case form.NotE:
		return mentionsBareVar(x.X)
	case form.ImpliesE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.EquivE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.CmpE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.ArithE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.IfE:
		return mentionsBareVar(x.C) || mentionsBareVar(x.T) || mentionsBareVar(x.E)
	case form.TupleE:
		for _, c := range x.Xs {
			if mentionsBareVar(c) {
				return true
			}
		}
		return false
	case form.ConcatE:
		return mentionsBareVar(x.A) || mentionsBareVar(x.B)
	case form.QuantE:
		return mentionsBareVar(x.Body)
	default:
		return true
	}
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

// domainClosed reports whether dom is closed under permutations of Values.
func (sym *Symmetry) domainClosed(dom []value.Value) bool {
	for i := 0; i+1 < len(sym.Values); i++ {
		a, b := sym.Values[i], sym.Values[i+1]
		for _, v := range dom {
			if !containsValue(dom, swapAtoms(v, a, b)) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Block validation

// blockRenames returns the variable rename map of each adjacent block
// transposition (i <-> i+1). Invariance under the adjacent transpositions
// generates invariance under all block permutations.
func (sym *Symmetry) blockRenames() []map[string]string {
	var out []map[string]string
	for i := 0; i+1 < len(sym.Blocks); i++ {
		m := make(map[string]string, 2*len(sym.Blocks[i]))
		for k := range sym.Blocks[i] {
			m[sym.Blocks[i][k]] = sym.Blocks[i+1][k]
			m[sym.Blocks[i+1][k]] = sym.Blocks[i][k]
		}
		out = append(out, m)
	}
	return out
}

// validateBlocks checks that each adjacent block transposition maps the
// system to itself: the renamed component multiset equals the original
// (comparing order-insensitive component descriptions), constraints match
// up to Disjoint normalization, init constraints match as a multiset, and
// the paired domains are equal.
func (sym *Symmetry) validateBlocks(comps []*spec.Component, steps, inits []NamedExpr, domains map[string][]value.Value) error {
	// Paired domains must agree position-wise.
	for k := range sym.Blocks[0] {
		ref := domains[sym.Blocks[0][k]]
		if len(ref) == 0 {
			return fmt.Errorf("symmetry: block variable %q has no declared domain", sym.Blocks[0][k])
		}
		for _, b := range sym.Blocks[1:] {
			dom := domains[b[k]]
			if !sameDomain(ref, dom) {
				return fmt.Errorf("symmetry: block variables %q and %q have different domains", sym.Blocks[0][k], b[k])
			}
		}
	}
	for _, ren := range sym.blockRenames() {
		if err := checkRenameInvariance(comps, steps, inits, ren); err != nil {
			return err
		}
	}
	return nil
}

func sameDomain(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]value.Value(nil), a...)
	bs := append([]value.Value(nil), b...)
	value.SortValues(as)
	value.SortValues(bs)
	for i := range as {
		if !as[i].Equal(bs[i]) {
			return false
		}
	}
	return true
}

func checkRenameInvariance(comps []*spec.Component, steps, inits []NamedExpr, ren map[string]string) error {
	orig := make([]string, 0, len(comps))
	renamed := make([]string, 0, len(comps))
	for _, c := range comps {
		orig = append(orig, componentDesc(c, nil))
		renamed = append(renamed, componentDesc(c, ren))
	}
	sort.Strings(orig)
	sort.Strings(renamed)
	for i := range orig {
		if orig[i] != renamed[i] {
			return fmt.Errorf("symmetry: block rename does not map the component set to itself (components are not replicas under %v)", ren)
		}
	}
	if err := checkExprMultiset("step constraints", steps, ren, constraintNormal); err != nil {
		return err
	}
	if err := checkExprMultiset("init constraints", inits, ren, exprNormal); err != nil {
		return err
	}
	return nil
}

func checkExprMultiset(what string, exprs []NamedExpr, ren map[string]string, normal func(form.Expr) string) error {
	orig := make([]string, 0, len(exprs))
	renamed := make([]string, 0, len(exprs))
	for _, ne := range exprs {
		if ne.E == nil {
			continue
		}
		orig = append(orig, normal(ne.E))
		renamed = append(renamed, normal(form.Rename(ne.E, ren)))
	}
	sort.Strings(orig)
	sort.Strings(renamed)
	for i := range orig {
		if orig[i] != renamed[i] {
			return fmt.Errorf("symmetry: block rename does not preserve the %s", what)
		}
	}
	return nil
}

// componentDesc renders a component for rename-invariance comparison:
// interface lists sorted, action and fairness multisets sorted (action
// ORDER affects successor enumeration order but not the step relation, and
// symmetry only needs the step relation preserved). Component names are
// excluded — replicas differ by name.
func componentDesc(c *spec.Component, ren map[string]string) string {
	rn := func(n string) string {
		if ren == nil {
			return n
		}
		if r, ok := ren[n]; ok {
			return r
		}
		return n
	}
	rnList := func(ns []string) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = rn(n)
		}
		sort.Strings(out)
		return out
	}
	rnExpr := func(e form.Expr) string {
		if e == nil || ren == nil {
			return exprNormal(e)
		}
		return exprNormal(form.Rename(e, ren))
	}
	var sb strings.Builder
	sb.WriteString("in=" + strings.Join(rnList(c.Inputs), ",") + ";")
	sb.WriteString("out=" + strings.Join(rnList(c.Outputs), ",") + ";")
	sb.WriteString("int=" + strings.Join(rnList(c.Internals), ",") + ";")
	sb.WriteString("init=" + rnExpr(c.Init) + ";")
	acts := make([]string, 0, len(c.Actions))
	for _, a := range c.Actions {
		acts = append(acts, rnExpr(a.Def))
	}
	sort.Strings(acts)
	sb.WriteString("actions=" + strings.Join(acts, "|") + ";")
	fairs := make([]string, 0, len(c.Fairness))
	for _, f := range c.Fairness {
		fairs = append(fairs, f.Kind.String()+":"+rnExpr(f.Action)+"_"+rnExpr(f.Sub))
	}
	sort.Strings(fairs)
	sb.WriteString("fair=" + strings.Join(fairs, "|"))
	return sb.String()
}

// CheckBlockInvariant checks that a property formula is syntactically
// invariant under every adjacent block transposition, modulo commutativity
// of ∧, ∨, = and ≠ (a rename turns g1∧g2 into g2∧g1; same formula).
// Properties that distinguish replicas are rejected; checking them on a
// block-reduced graph could miss violations.
func (sym *Symmetry) CheckBlockInvariant(e form.Expr) error {
	if !sym.blockActive() || e == nil {
		return nil
	}
	for _, ren := range sym.blockRenames() {
		if exprNormal(form.Rename(e, ren)) != exprNormal(e) {
			return fmt.Errorf("formula %s is not invariant under block rename %v", e, ren)
		}
	}
	return nil
}

// exprNormal renders e with the operand lists of commutative operators
// (∧, ∨, =, ≠) sorted, so renamings that merely reorder operands compare
// equal. Unknown node kinds fall back to the plain rendering.
func exprNormal(e form.Expr) string {
	if e == nil {
		return "-"
	}
	switch x := e.(type) {
	case form.AndE:
		return "and(" + strings.Join(sortedNormals(x.Xs), ",") + ")"
	case form.OrE:
		return "or(" + strings.Join(sortedNormals(x.Xs), ",") + ")"
	case form.NotE:
		return "not(" + exprNormal(x.X) + ")"
	case form.ImpliesE:
		return "implies(" + exprNormal(x.A) + "," + exprNormal(x.B) + ")"
	case form.EquivE:
		return "equiv(" + strings.Join(sortedNormals([]form.Expr{x.A, x.B}), ",") + ")"
	case form.CmpE:
		if x.Op == form.OpEq || x.Op == form.OpNe {
			return fmt.Sprintf("cmp%d(%s)", x.Op,
				strings.Join(sortedNormals([]form.Expr{x.A, x.B}), ","))
		}
		return fmt.Sprintf("cmp%d(%s,%s)", x.Op, exprNormal(x.A), exprNormal(x.B))
	case form.PrimeE:
		return "prime(" + exprNormal(x.X) + ")"
	case form.IfE:
		return "if(" + exprNormal(x.C) + "," + exprNormal(x.T) + "," + exprNormal(x.E) + ")"
	case form.QuantE:
		return fmt.Sprintf("quant(%v,%s,%v,%s)", x.Exists, x.Name, x.Domain, exprNormal(x.Body))
	default:
		return e.String()
	}
}

func sortedNormals(xs []form.Expr) []string {
	out := make([]string, len(xs))
	for i, c := range xs {
		out[i] = exprNormal(c)
	}
	sort.Strings(out)
	return out
}
