package form

import (
	"fmt"
	"sort"

	"opentla/internal/state"
	"opentla/internal/value"
)

// maxEnabledBranches caps the up-front disjunction expansion of EnabledFn.
// Beyond it the action is pathological for static expansion and the
// per-call analysis of Enabled is the better trade.
const maxEnabledBranches = 256

// maxUpdateBranches caps the disjunction and ∃ expansion of UpdatesFn, and
// maxUndetermined the per-branch count of owned-variable assignments it
// enumerates. UpdatesFn has no interpreted fallback, so exceeding either is
// a compile-time error.
const (
	maxUpdateBranches = 4096
	maxUndetermined   = 1_000_000
)

// A SizeError is UpdatesFn's refusal of an action past one of its size
// caps, maxUpdateBranches or maxUndetermined.
type SizeError struct{ Reason string }

func (e *SizeError) Error() string { return e.Reason }

// maxIndexedTuples caps the free-variable domain product a branch's
// inverse-image index (see eqIndex) may cover; a larger branch enumerates.
const maxIndexedTuples = 1 << 16

// EnabledFn compiles Enabled(a, ·) for states binding exactly the variables
// of layout: the syntactic analysis Enabled repeats on every call —
// conjunct flattening, disjunction distribution, guard/assignment
// classification, primed-variable collection — runs once here, and the
// guard, assignment, and residual-conjunct evaluations run as compiled
// positional closures (see CompilePred). The returned function is
// semantically identical to Enabled: same verdicts, same error messages
// (failures re-derive through the interpreter), with states that do not
// match the layout delegated to Enabled itself.
//
// The returned function reuses internal scratch buffers and is NOT safe for
// concurrent use; compile one per goroutine. Domains are snapshotted at
// compile time, matching the usual construct-once use of Ctx.
func (c *Ctx) EnabledFn(a Expr, layout []string) func(s *state.State) (bool, error) {
	interp := func(s *state.State) (bool, error) { return c.Enabled(a, s) }
	branches, ok := c.enabledBranches(a, layout)
	if !ok {
		return interp
	}
	lay := state.LayoutOf(layout)
	scr := new(enScratch)
	found := func([]state.PosUpdate) bool { return false }
	return func(s *state.State) (bool, error) {
		if s == nil || s.Layout() != lay {
			return interp(s)
		}
		for _, b := range branches {
			var enabled bool
			var err error
			if b.fallback {
				enabled, err = c.enabledConj(b.conjs, s)
			} else {
				enabled, err = b.each(s, scr, false, found)
			}
			if err != nil {
				return false, err
			}
			if enabled {
				return true, nil
			}
		}
		return false, nil
	}
}

// enabledBranches statically expands a into its disjunctive branches and
// compiles each for EnabledFn. It fails when the expansion exceeds
// maxEnabledBranches.
func (c *Ctx) enabledBranches(a Expr, layout []string) ([]*enBranch, bool) {
	budget := maxEnabledBranches
	flat, ok := expandBranches(flattenAnd(a, nil), nil, &budget, false)
	if !ok {
		return nil, false
	}
	comp := newCompiler(layout)
	branches := make([]*enBranch, len(flat))
	for i, conjs := range flat {
		branches[i] = c.compileBranch(conjs, comp, nil)
	}
	return branches, true
}

// UpdatesFn compiles the successor generator of action a for a component
// owning the variables owned, over states binding exactly the variables of
// layout. The returned function lists, for a state s, every assignment to
// the owned variables — each within its declared domain — that satisfies a
// when every other variable keeps its value in s. Each candidate is a
// positional update covering all of owned, in layout order; candidates are
// distinct.
//
// It is the same branch compiler as EnabledFn, run to completion instead
// of to the first witness, with two extensions: a finite ∃ with primes
// expands into one branch per domain value, and primed variables outside
// owned are checked against s rather than enumerated. An evaluation error
// rejects the branch or candidate it occurs in, as a brute-force
// enumeration skips every assignment on which a fails to evaluate.
//
// The returned function appends the candidates of s to u.Cands and
// evaluates its branches in u's scratch, so a caller that keeps one Updates
// per goroutine and Resets it per state generates candidates without
// allocating. It is safe for concurrent use on distinct Updates.
//
// Compilation fails when a mentions a variable outside the layout, when an
// owned variable has no declared domain, or when the expansion or the
// enumeration of undetermined owned variables is too large to be a
// plausible finite-state action; the last two refusals are *SizeErrors.
func (c *Ctx) UpdatesFn(a Expr, layout, owned []string) (func(s *state.State, u *Updates) error, error) {
	budget := maxUpdateBranches
	flat, ok := expandBranches(flattenAnd(a, nil), nil, &budget, true)
	if !ok {
		return nil, &SizeError{fmt.Sprintf("action expands into more than %d disjunctive branches", maxUpdateBranches)}
	}
	comp := newCompiler(layout)
	ownedSet := make(map[string]bool, len(owned))
	for _, v := range owned {
		if _, ok := comp.pos[v]; !ok {
			return nil, fmt.Errorf("owned variable %q is not in the state layout", v)
		}
		ownedSet[v] = true
	}
	branches := make([]*enBranch, len(flat))
	for i, conjs := range flat {
		b := c.compileBranch(conjs, comp, ownedSet)
		switch {
		case b.fallback:
			return nil, fmt.Errorf("action mentions a variable outside the state layout")
		case b.domainErr != nil:
			return nil, b.domainErr
		}
		n := 1
		for _, d := range b.freeDoms {
			if n *= len(d); n > maxUndetermined {
				return nil, &SizeError{fmt.Sprintf("more than %d undetermined owned-variable assignments per state", maxUndetermined)}
			}
		}
		branches[i] = b
	}
	lay := state.LayoutOf(layout)
	return func(s *state.State, u *Updates) error {
		if s == nil || s.Layout() != lay {
			return fmt.Errorf("state %s does not bind exactly the %d layout variables", s, len(layout))
		}
		first := len(u.Cands)
		for _, b := range branches {
			// Branches may overlap; a candidate repeating one from an earlier
			// branch is dropped. Within a branch candidates are distinct.
			prior := u.Cands[first:]
			_, _ = b.each(s, &u.scr, true, func(ups []state.PosUpdate) bool {
				for _, o := range prior {
					if sameValues(o, ups) {
						return true
					}
				}
				u.add(ups)
				return true
			})
		}
		return nil
	}, nil
}

// Updates is the caller-owned output and scratch of an UpdatesFn
// generator. Generators append their candidates to Cands, each a slice of
// one flat buffer of positional updates, and evaluate their branches in
// its branch scratch; Reset empties it and keeps every buffer's capacity.
// An Updates is not safe for concurrent use.
type Updates struct {
	// Cands lists the candidates appended since the last Reset. Each stays
	// valid, and may be resolved in place, until the next Reset.
	Cands [][]state.PosUpdate
	flat  []state.PosUpdate
	scr   enScratch
}

// Reset empties u for the candidates of another state.
func (u *Updates) Reset() {
	u.Cands = u.Cands[:0]
	u.flat = u.flat[:0]
}

// add appends a copy of ups as a candidate. A candidate added before flat
// outgrew its capacity keeps the old array, which nothing writes again.
func (u *Updates) add(ups []state.PosUpdate) {
	start := len(u.flat)
	u.flat = append(u.flat, ups...)
	u.Cands = append(u.Cands, u.flat[start:len(u.flat):len(u.flat)])
}

// sameValues reports whether two updates over the same positions assign the
// same values.
func sameValues(a, b []state.PosUpdate) bool {
	for i := range a {
		if !a[i].Val.Equal(b[i].Val) {
			return false
		}
	}
	return true
}

// expandBranches statically distributes the disjunctions of a conjunct list
// into pure-conjunction branches, in exactly the depth-first order
// enabledConj explores them at runtime (so verdicts and first-error
// behavior are preserved). With quant set, a conjunct ∃v ∈ D : body that
// has primes is distributed too, as the disjunction of body[d/v] over D in
// domain order. It fails if the expansion exceeds the budget.
func expandBranches(conjs []Expr, out [][]Expr, budget *int, quant bool) ([][]Expr, bool) {
	for i, cj := range conjs {
		var alts []Expr
		switch n := cj.(type) {
		case OrE:
			alts = n.Xs
		case QuantE:
			if !quant || !n.Exists || !HasPrimes(n) {
				continue
			}
			for _, d := range n.Domain {
				alts = append(alts, n.Body.Subst(map[string]Expr{n.Name: Const(d)}))
			}
		default:
			continue
		}
		for _, alt := range alts {
			sub := make([]Expr, 0, len(conjs)+1)
			sub = append(sub, conjs[:i]...)
			sub = flattenAnd(alt, sub)
			sub = append(sub, conjs[i+1:]...)
			var ok bool
			out, ok = expandBranches(sub, out, budget, quant)
			if !ok {
				return nil, false
			}
		}
		return out, true
	}
	*budget--
	if *budget < 0 {
		return nil, false
	}
	return append(out, append([]Expr(nil), conjs...)), true
}

// enItem is one conjunct of a pure-conjunction branch, pre-classified. The
// items preserve the original conjunct order so guard failures, assignment
// conflicts, and evaluation errors surface exactly where the interpreted
// path would surface them.
type enItem struct {
	// Guard (primeless conjunct): evaluated on ⟨s, —⟩.
	guard boolFn
	gexpr Expr

	// Determined assignment x' = e: rhs evaluated on ⟨s, —⟩.
	det     bool
	rhs     valFn
	rhsExpr Expr
	pos     int           // layout position of x
	w       int           // index of x in the written updates; -1: x keeps its value
	dup     bool          // a repeat determination: must agree with the first
	domain  []value.Value // declared domain of x, nil if none
}

// enBranch is one compiled pure-conjunction branch. Its candidates assign
// the written variables — the determined ones from their assignments, the
// free ones by mixed-radix enumeration over their domains — and must then
// satisfy the residual conjuncts.
type enBranch struct {
	conjs    []Expr // original conjuncts, for the interpreted fallback
	fallback bool   // a variable is outside the layout: interpret

	items     []enItem
	domainErr error // free variable with no declared domain

	writePos []int           // layout positions of the written variables, ascending
	rest     []enItem        // residual conjuncts (guard/gexpr fields), on ⟨s, cand⟩
	freeW    []int           // written-update index of each enumerated variable
	freeDoms [][]value.Value // their domains, aligned with freeW

	index *eqIndex // inverse image of rest[0], nil if not indexable
}

// eqIndex is the inverse image of a branch's first residual conjunct L = R,
// where L reads only enumerated variables, all primed, and R reads no
// primed variable. Each free-variable tuple is named by its mixed-radix
// ordinal — its position in the candidate enumeration — and the index maps
// each value of L to the ascending ordinals of the tuples producing it. On
// a state the branch then evaluates R once and visits only R's bucket: the
// tuples outside it falsify L = R without error, so the enumeration would
// reject them before reaching any later conjunct.
type eqIndex struct {
	rhs     valFn
	rhsExpr Expr
	buckets map[uint64][]eqBucket // by fingerprint of the L value
}

type eqBucket struct {
	val  value.Value
	ords []int32
}

// enScratch holds the per-call buffers a branch evaluation reuses.
type enScratch struct {
	ups     []state.PosUpdate
	freeIdx []int
	state   state.State
}

// compileBranch classifies and compiles one pure-conjunction branch.
//
// With owned nil it mirrors enabledConj's pure-conjunction path: every
// primed variable is written, the undetermined ones enumerated. With owned
// set (UpdatesFn) exactly the owned variables are written — each owned
// variable not determined is enumerated, primed or not — while a primed
// variable outside owned keeps its value in s, so an assignment to it is
// checked against s instead of written.
func (c *Ctx) compileBranch(conjs []Expr, comp *compiler, owned map[string]bool) *enBranch {
	b := &enBranch{conjs: conjs}
	detPos := make(map[string]int)
	written := make(map[string]bool)
	for v := range owned {
		written[v] = true
	}
	for _, cj := range conjs {
		if name, rhs, ok := determinedAssignment(cj); ok {
			pos, inLayout := comp.pos[name]
			if !inLayout {
				b.fallback = true
				return b
			}
			if owned == nil {
				written[name] = true
			}
			_, dup := detPos[name]
			detPos[name] = pos
			b.items = append(b.items, enItem{
				det: true, rhs: comp.val(rhs, false), rhsExpr: rhs,
				pos: pos, dup: dup, domain: c.Domains[name],
			})
			continue
		}
		primed := PrimedVars(cj)
		if len(primed) == 0 {
			b.items = append(b.items, enItem{guard: comp.pred(cj, false), gexpr: cj})
			continue
		}
		for _, v := range primed {
			if owned == nil {
				written[v] = true
			} else if _, inLayout := comp.pos[v]; !inLayout {
				b.fallback = true
				return b
			}
		}
		b.rest = append(b.rest, enItem{guard: comp.pred(cj, false), gexpr: cj})
	}
	var free []string
	for v := range written {
		if _, det := detPos[v]; !det {
			free = append(free, v)
		}
	}
	sort.Strings(free)
	var freePos []int
	for _, v := range free {
		dom, err := c.Domain(v)
		if err != nil {
			if b.domainErr == nil {
				b.domainErr = fmt.Errorf("Enabled: %w", err)
			}
			delete(written, v)
			continue
		}
		pos, inLayout := comp.pos[v]
		if !inLayout {
			b.fallback = true
			return b
		}
		freePos = append(freePos, pos)
		b.freeDoms = append(b.freeDoms, dom)
	}
	for v := range written {
		if pos, ok := comp.pos[v]; ok {
			b.writePos = append(b.writePos, pos)
		}
	}
	sort.Ints(b.writePos)
	windex := make(map[int]int, len(b.writePos))
	for i, pos := range b.writePos {
		windex[pos] = i
	}
	for i := range b.items {
		it := &b.items[i]
		if !it.det {
			continue
		}
		it.w = -1
		if w, ok := windex[it.pos]; ok {
			it.w = w
		}
	}
	for _, pos := range freePos {
		b.freeW = append(b.freeW, windex[pos])
	}
	b.index = b.indexFirstResidual(comp)
	return b
}

// indexFirstResidual builds the eqIndex of b's first residual conjunct. It
// returns nil unless that conjunct is L = R (in either order) with R
// primeless and L reading only enumerated variables, all primed; the
// free-variable domain product is at most maxIndexedTuples; and L evaluates
// without error on every tuple. The first residual is the only one
// indexable: a tuple outside the bucket must be rejected before any other
// residual conjunct could raise an error on it.
func (b *enBranch) indexFirstResidual(comp *compiler) *eqIndex {
	if len(b.rest) == 0 || b.domainErr != nil {
		return nil
	}
	eq, ok := b.rest[0].gexpr.(CmpE)
	if !ok || eq.Op != OpEq {
		return nil
	}
	enumerated := make(map[int]bool, len(b.freeW))
	for _, w := range b.freeW {
		enumerated[b.writePos[w]] = true
	}
	readsOnlyEnumerated := func(e Expr) bool {
		unprimed, primed := FreeVars(e)
		if len(unprimed) > 0 {
			return false
		}
		for _, v := range primed {
			if pos, ok := comp.pos[v]; !ok || !enumerated[pos] {
				return false
			}
		}
		return true
	}
	lhs, rhs := eq.A, eq.B
	if !readsOnlyEnumerated(lhs) {
		lhs, rhs = rhs, lhs
	}
	if HasPrimes(rhs) || !readsOnlyEnumerated(lhs) {
		return nil
	}
	n := 1
	for _, d := range b.freeDoms {
		if n *= len(d); n > maxIndexedTuples {
			return nil
		}
	}
	// L reads only the enumerated positions of the successor, so any values
	// serve for the rest of the step.
	names := make(map[string]value.Value, len(comp.pos))
	for v := range comp.pos {
		names[v] = value.Int(0)
	}
	base, scratch := state.New(names), state.New(nil)
	ups := make([]state.PosUpdate, len(b.writePos))
	for i, pos := range b.writePos {
		ups[i] = state.PosUpdate{Pos: pos, Val: value.Int(0)}
	}
	lfn := comp.val(lhs, false)
	ix := &eqIndex{rhs: comp.val(rhs, false), rhsExpr: rhs, buckets: make(map[uint64][]eqBucket)}
	for ord := 0; ord < n; ord++ {
		b.decode(ord, ups)
		base.OverwriteInto(scratch, ups)
		st := state.Step{From: base, To: scratch}
		v, err := lfn(st)
		if err != nil {
			if v, err = lhs.Eval(st, nil); err != nil {
				return nil
			}
		}
		ix.add(v, int32(ord))
	}
	return ix
}

func (ix *eqIndex) add(v value.Value, ord int32) {
	fp := v.Fingerprint()
	bs := ix.buckets[fp]
	for i := range bs {
		if bs[i].val.Equal(v) {
			bs[i].ords = append(bs[i].ords, ord)
			return
		}
	}
	ix.buckets[fp] = append(bs, eqBucket{val: v, ords: []int32{ord}})
}

// lookup evaluates R on st — compiled, then interpreted on failure, as for
// determined assignments — and returns the ordinals of the tuples whose L
// value equals it. It reports false when there is no index or R fails to
// evaluate; the caller then enumerates, which surfaces the failure exactly
// where it always has.
func (ix *eqIndex) lookup(st state.Step) ([]int32, bool) {
	if ix == nil {
		return nil, false
	}
	v, err := ix.rhs(st)
	if err != nil {
		if v, err = ix.rhsExpr.Eval(st, nil); err != nil {
			return nil, false
		}
	}
	for _, bk := range ix.buckets[v.Fingerprint()] {
		if bk.val.Equal(v) {
			return bk.ords, true
		}
	}
	return nil, true
}

// decode writes into ups the free-variable values of the tuple with
// mixed-radix ordinal ord (last variable fastest).
func (b *enBranch) decode(ord int, ups []state.PosUpdate) {
	for i := len(b.freeW) - 1; i >= 0; i-- {
		d := b.freeDoms[i]
		ups[b.freeW[i]].Val = d[ord%len(d)]
		ord /= len(d)
	}
}

// each evaluates the branch on s and passes every satisfying candidate (the
// written updates, valid only for the duration of the call) to yield,
// stopping when yield returns false; it reports whether it stopped.
//
// Every step — guards, determined assignments, domain checks, candidate
// enumeration — happens in the same order as enabledConj, with compiled
// closures doing the evaluation and the interpreter re-deriving any
// compiled failure; an eqIndex only skips candidates the enumeration would
// reject at its first residual conjunct. Unless lenient, an interpreter
// error is returned; when lenient it rejects the branch (guards,
// assignments) or the candidate (residual conjuncts). Lenient evaluation
// also supplies s as the successor of a primeless conjunct, for the primed
// constants an ∃ expansion leaves.
func (b *enBranch) each(s *state.State, scr *enScratch, lenient bool, yield func([]state.PosUpdate) bool) (bool, error) {
	st0 := state.Step{From: s}
	if lenient {
		st0.To = s
	}
	ups := grow(scr.ups, len(b.writePos))
	scr.ups = ups
	for i, pos := range b.writePos {
		ups[i] = state.PosUpdate{Pos: pos}
	}
	for _, it := range b.items {
		if !it.det {
			ok, err := evalPred(it.guard, it.gexpr, st0, lenient)
			if err != nil || !ok {
				return false, err
			}
			continue
		}
		v, err := it.rhs(st0)
		if err != nil {
			if v, err = it.rhsExpr.Eval(st0, nil); err != nil {
				if lenient {
					return false, nil
				}
				return false, err
			}
		}
		switch {
		case it.w < 0:
			if !v.Equal(s.At(it.pos)) {
				return false, nil // x keeps its value, which differs
			}
		case it.dup:
			if !ups[it.w].Val.Equal(v) {
				return false, nil // conflicting determinations
			}
		default:
			if it.domain != nil && !inDomain(v, it.domain) {
				return false, nil
			}
			ups[it.w].Val = v
		}
	}
	if b.domainErr != nil {
		return false, b.domainErr
	}
	// With an index on the first residual L = R, only the tuples in R's
	// bucket can satisfy the branch; they are visited in enumeration order
	// and the conjunct they satisfy by construction is skipped.
	if ords, ok := b.index.lookup(st0); ok {
		for _, ord := range ords {
			b.decode(int(ord), ups)
			if stop, err := tryCandidate(s, scr, ups, b.rest[1:], lenient, yield); stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	}
	// Candidate enumeration: mixed-radix over the free variables, last
	// variable fastest, over a single scratch state — the compiled twin of
	// enabledConj's positional loop.
	idx := grow(scr.freeIdx, len(b.freeW))
	scr.freeIdx = idx
	for i := range idx {
		idx[i] = 0
	}
	for {
		for i, w := range b.freeW {
			ups[w].Val = b.freeDoms[i][idx[i]]
		}
		if stop, err := tryCandidate(s, scr, ups, b.rest, lenient, yield); stop || err != nil {
			return stop, err
		}
		fi := len(idx) - 1
		for fi >= 0 {
			idx[fi]++
			if idx[fi] < len(b.freeDoms[fi]) {
				break
			}
			idx[fi] = 0
			fi--
		}
		if fi < 0 {
			return false, nil
		}
	}
}

// tryCandidate passes the candidate ups to yield if it satisfies the residual
// conjuncts rest, and reports whether yield asked to stop.
func tryCandidate(s *state.State, scr *enScratch, ups []state.PosUpdate, rest []enItem, lenient bool, yield func([]state.PosUpdate) bool) (bool, error) {
	if len(rest) > 0 {
		s.OverwriteInto(&scr.state, ups)
		st := state.Step{From: s, To: &scr.state}
		for _, r := range rest {
			ok, err := evalPred(r.guard, r.gexpr, st, lenient)
			if err != nil || !ok {
				return false, err
			}
		}
	}
	return !yield(ups), nil
}

// evalPred runs a compiled predicate, re-deriving a compiled failure
// through the interpreter; a lenient caller reads an interpreter error as
// false.
func evalPred(f boolFn, e Expr, st state.Step, lenient bool) (bool, error) {
	ok, err := f(st)
	if err == nil {
		return ok, nil
	}
	ok, err = EvalBool(e, st, nil)
	if err != nil && lenient {
		return false, nil
	}
	return ok, err
}

func inDomain(v value.Value, dom []value.Value) bool {
	for _, dv := range dom {
		if dv.Equal(v) {
			return true
		}
	}
	return false
}

// grow returns buf resized to n, reallocating only when its capacity is
// short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
