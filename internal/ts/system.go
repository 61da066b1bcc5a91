// Package ts builds finite transition systems from conjunctions of
// component specifications, following §5 of Abadi & Lamport, "Open Systems
// in TLA": the conjunction of the (canonical-form) specifications of
// components that together form a complete system is itself equivalent to a
// canonical-form complete-system specification, whose behaviors an
// explicit-state graph represents exactly.
//
// A step of the conjunction satisfies every component's □[N_i]_⟨m_i,x_i⟩,
// so it may combine real actions of several components simultaneously;
// interleaving is not assumed but may be imposed with Disjoint step
// constraints (§2.3), exactly as the paper does for formula (4) in §A.5.
package ts

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// StepConstraint is an extra conjunct on every step of the system, such as
// one pair of a Disjoint assumption. The action must already permit
// whatever stuttering it intends to permit (use form.Square).
type StepConstraint struct {
	Name   string
	Action form.Expr
}

// System is a finite-state complete system: the conjunction of component
// specifications plus optional step constraints, over declared finite
// variable domains.
//
// A System must not be mutated after its first Successors call, which
// compiles it once and keeps the result (Build and BuildWith compile afresh
// on every call).
type System struct {
	Name        string
	Components  []*spec.Component
	Constraints []StepConstraint
	// Domains assigns a finite domain to every variable.
	Domains map[string][]value.Value
	// Workers is the goroutine count for parallel frontier exploration
	// (0 = GOMAXPROCS). The built graph is identical at any setting.
	Workers int
	// Cache, when non-nil, is consulted before exploring and persisted to
	// after a complete build (see GraphCache). Entries are keyed by
	// CanonicalDesc, so Name and Workers do not affect cache identity.
	Cache GraphCache
	// Reduce, when non-nil with enabled options, requests symmetry
	// reduction: canonicalization of every state to its orbit
	// representative (see internal/reduce). An invalid symmetry declaration
	// is a BuildWith error — at this level the declaration is the user's claim
	// and a wrong claim must fail loudly, not silently explore less.
	// Checks must read each edge's real successor (EdgeReal) and lift
	// counterexamples (Lift); liveness on a reduced graph is exact for
	// targets the group leaves invariant (see check.FindFairLasso).
	Reduce *reduce.Config

	succOnce sync.Once // compiles succCS/succErr for Successors
	succCS   *compiledSystem
	succErr  error
}

// reduceSteps converts the step constraints to the reduce package's named
// expressions, for symmetry validation.
func (sys *System) reduceSteps() []reduce.NamedExpr {
	out := make([]reduce.NamedExpr, 0, len(sys.Constraints))
	for _, sc := range sys.Constraints {
		out = append(out, reduce.NamedExpr{Name: sc.Name, E: sc.Action})
	}
	return out
}

// Vars returns the sorted union of all variables of the system.
func (sys *System) Vars() []string {
	set := make(map[string]bool)
	for _, c := range sys.Components {
		for _, v := range c.Vars() {
			set[v] = true
		}
	}
	for _, sc := range sys.Constraints {
		for _, v := range form.AllVars(sc.Action) {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// FreeVars returns the variables owned by no component: under conjunction
// semantics they may change arbitrarily (within their domains) on any step.
func (sys *System) FreeVars() []string {
	owned := make(map[string]bool)
	for _, c := range sys.Components {
		for _, v := range c.Owned() {
			owned[v] = true
		}
	}
	var out []string
	for _, v := range sys.Vars() {
		if !owned[v] {
			out = append(out, v)
		}
	}
	return out
}

// Ctx returns an evaluation context over the system's domains.
func (sys *System) Ctx() *form.Ctx { return form.NewCtx(sys.Domains) }

// Validate checks that the system is well-formed: components validate
// individually, owned variable sets are pairwise disjoint, and every
// variable has a nonempty domain.
func (sys *System) Validate() error {
	ownedBy := make(map[string]string)
	for _, c := range sys.Components {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("system %s: %w", sys.Name, err)
		}
		for _, v := range c.Owned() {
			if prev, dup := ownedBy[v]; dup {
				return fmt.Errorf("system %s: variable %q owned by both %s and %s", sys.Name, v, prev, c.Name)
			}
			ownedBy[v] = c.Name
		}
	}
	for _, v := range sys.Vars() {
		if len(sys.Domains[v]) == 0 {
			return fmt.Errorf("system %s: variable %q has no domain", sys.Name, v)
		}
	}
	return nil
}

// compiledComponent caches per-component data used during successor
// generation.
type compiledComponent struct {
	comp    *spec.Component
	owned   []string
	actions []compiledAction
}

// compiledAction is one action definition compiled against the system
// layout: as a successor generator proposing owned-variable updates, and as
// the predicate each merged step re-checks. freeDep records whether Def
// primes a free variable: when it does not, its verdict on a candidate step
// is the same under every free assignment (see successors).
type compiledAction struct {
	name    string
	updates func(*state.State, *form.Updates) error
	pred    form.CompiledPred
	freeDep bool
}

// compiledConstraint is a step constraint compiled against the system
// layout.
type compiledConstraint struct {
	name string
	pred form.CompiledPred
}

// compiledSystem caches everything successor generation needs: per-component
// actions with their derived update generators, the step constraints split
// by whether they prime a free variable, and the free variables with each
// domain value resolved to a positional update. It is immutable after
// compile and shared across exploration workers.
type compiledSystem struct {
	comps     []compiledComponent
	consIndep []compiledConstraint // constraints priming no free variable
	consDep   []compiledConstraint // constraints priming some free variable
	free      []string
	freeUps   [][]state.PosUpdate // freeUps[i][j]: free[i] := its j-th domain value
}

func (sys *System) compile() (*compiledSystem, error) {
	// All states of a system bind exactly sys.Vars(); compiling every
	// declarative definition against that layout once moves variable
	// resolution and stutter-equality checks out of the per-candidate loop.
	layout := sys.Vars()
	ctx := sys.Ctx()
	cs := &compiledSystem{comps: make([]compiledComponent, len(sys.Components)), free: sys.FreeVars()}
	freeSet := make(map[string]bool, len(cs.free))
	for _, v := range cs.free {
		freeSet[v] = true
	}
	primesFree := func(e form.Expr) bool {
		for _, v := range form.PrimedVars(e) {
			if freeSet[v] {
				return true
			}
		}
		return false
	}
	for i, c := range sys.Components {
		cc := compiledComponent{comp: c, owned: c.Owned()}
		for _, a := range c.Actions {
			if a.Def == nil {
				return nil, fmt.Errorf("component %s action %s: no definition", c.Name, a.Name)
			}
			updates, err := ctx.UpdatesFn(a.Def, layout, cc.owned)
			if err != nil {
				return nil, fmt.Errorf("component %s action %s: %w", c.Name, a.Name, err)
			}
			cc.actions = append(cc.actions, compiledAction{
				name:    a.Name,
				updates: updates,
				pred:    form.CompilePred(a.Def, layout),
				freeDep: primesFree(a.Def),
			})
		}
		cs.comps[i] = cc
	}
	for _, sc := range sys.Constraints {
		c := compiledConstraint{name: sc.Name, pred: form.CompilePred(sc.Action, layout)}
		if primesFree(sc.Action) {
			cs.consDep = append(cs.consDep, c)
		} else {
			cs.consIndep = append(cs.consIndep, c)
		}
	}
	_, ups, err := sys.domainUpdates(layout, cs.free)
	if err != nil {
		return nil, err
	}
	cs.freeUps = ups
	return cs, nil
}

// domainUpdates returns a state over layout (the sorted sys.Vars()) binding
// each variable to its first domain value and, for each variable of vars,
// one positional update per value of its domain, resolved so that applying
// one copies a code instead of interning the value.
func (sys *System) domainUpdates(layout, vars []string) (*state.State, [][]state.PosUpdate, error) {
	first := make(map[string]value.Value, len(layout))
	for _, v := range layout {
		dom := sys.Domains[v]
		if len(dom) == 0 {
			return nil, nil, fmt.Errorf("system %s: variable %q has no domain", sys.Name, v)
		}
		first[v] = dom[0]
	}
	tmpl := state.New(first)
	out := make([][]state.PosUpdate, len(vars))
	for i, v := range vars {
		pos, _ := tmpl.PosOf(v)
		for _, d := range sys.Domains[v] {
			out[i] = append(out[i], state.PosUpdate{Pos: pos, Val: d})
		}
		tmpl.Resolve(out[i])
	}
	return tmpl, out, nil
}

// InitialStates enumerates the states over the full variable set whose
// assignments satisfy every component's Init.
func (sys *System) InitialStates() ([]*state.State, error) {
	return sys.initialStates(engine.NoLimit())
}

// initialStates is InitialStates under a resource meter. Init is solved by
// the branch compiler that derives successors: the conjoined Inits, every
// variable primed, are compiled as an action owning every variable and run
// once from the template state, so each candidate is a whole initial state
// and only the variables no Init determines are enumerated. An Init the
// compiler refuses for size fails informatively with an *engine.BudgetError
// instead of grinding.
//
// The candidates are put in value.ForEachAssignment order (domain ordinals
// over the sorted variables, last variable fastest), which fixes the
// numbering of every graph, and each is re-checked against the Inits as
// successors re-checks Def: an Init that fails to evaluate on a state the
// compiler admits fails the build. The compiler evaluates leniently, so an
// Init that fails to evaluate only on states it rejects is not reported.
func (sys *System) initialStates(m *engine.Meter) ([]*state.State, error) {
	layout := sys.Vars()
	tmpl, _, err := sys.domainUpdates(layout, nil)
	if err != nil {
		return nil, err
	}
	var inits []form.Expr
	for _, c := range sys.Components {
		if c.Init != nil {
			inits = append(inits, c.Init)
		}
	}
	primed := make(map[string]form.Expr, len(layout))
	for _, v := range layout {
		primed[v] = form.PrimedVar(v)
	}
	// Every compile failure is one of size: Validate keeps each Init to
	// declared variables, and every variable has a domain.
	solve, err := sys.Ctx().UpdatesFn(form.And(inits...).Subst(primed), layout, layout)
	if err != nil {
		return nil, &engine.BudgetError{
			Reason: fmt.Sprintf("system %s: initial-state space too large to solve Init: %v; shrink the instance or its domains", sys.Name, err),
			Stats:  m.Stats(),
		}
	}
	var u form.Updates
	if err := solve(tmpl, &u); err != nil {
		return nil, fmt.Errorf("system %s: %w", sys.Name, err)
	}
	cands := make([]*state.State, len(u.Cands))
	for i, ups := range u.Cands {
		cands[i] = tmpl.CloneWith(ups)
	}
	slices.SortFunc(cands, func(a, b *state.State) int {
		for i, v := range layout {
			if !a.EqualAt(b, i) {
				dom := sys.Domains[v]
				return slices.IndexFunc(dom, a.At(i).Equal) - slices.IndexFunc(dom, b.At(i).Equal)
			}
		}
		return 0
	})
	compiled := make([]form.CompiledPred, len(inits))
	for i, p := range inits {
		compiled[i] = form.CompilePred(p, layout)
	}
	out := cands[:0]
next:
	for _, s := range cands {
		if err := m.Tick(); err != nil {
			return nil, err
		}
		for i, p := range compiled {
			ok, err := p(state.Step{From: s})
			if err != nil {
				return nil, fmt.Errorf("system %s: evaluating Init %s on %s: %w", sys.Name, inits[i], s, err)
			}
			if !ok {
				continue next
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// choice is one component's contribution to a joint step with its update
// resolved to positional form: either a stutter (action == nil, no updates)
// or a named action reassigning its owned variables. Its updates are
// resolved to value codes once and reused by every choice combination, so
// each candidate successor is built with a single row copy.
type choice struct {
	action *compiledAction
	ups    []state.PosUpdate
}

// Successors computes all states t such that ⟨s, t⟩ satisfies every
// component's [N_i]_⟨m_i,x_i⟩, every step constraint, and changes free
// variables arbitrarily. The result always includes s itself (stuttering),
// holds each successor once, at its first valid occurrence, and is freshly
// allocated, scratch included. The system is compiled on the first call
// only (see System).
func (sys *System) Successors(s *state.State) ([]*state.State, error) {
	sys.succOnce.Do(func() { sys.succCS, sys.succErr = sys.compile() })
	if sys.succErr != nil {
		return nil, sys.succErr
	}
	var out []*state.State
	err := sys.successors(sys.succCS, new(expandScratch), s, func(t *state.State) error {
		if !slices.ContainsFunc(out, t.Equal) {
			out = append(out, t.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// newExpand returns the exploration's expander factory over cs: each
// worker calls it once and expands every state it claims over the one
// expandScratch the returned expander owns.
func (sys *System) newExpand(cs *compiledSystem) func() expandFunc {
	return func() expandFunc {
		x := new(expandScratch)
		return func(s *state.State, emit func(*state.State) error) error {
			return sys.successors(cs, x, s, emit)
		}
	}
}

// expandScratch is the successor-generation scratch of one exploration
// worker: every buffer successors uses, kept across the states the worker
// expands so that expanding a state allocates nothing of its own. Each
// call truncates every buffer, or clears it where it must start zeroed,
// before using it; nothing of one call is read by the next.
type expandScratch struct {
	ups     form.Updates // every action's candidates in the current state
	perComp [][]choice   // perComp[i]: component i's choices, stutter first
	// passed holds, one index vector after another, the choice combinations
	// that pass the free-independent check under the first free assignment;
	// later free assignments visit only these.
	passed  []int
	freePos []state.PosUpdate   // the current free assignment
	freeIdx []int               // its mixed-radix counter, last variable fastest
	groups  [][]state.PosUpdate // the update groups of the current candidate
	idx     []int               // the current choice combination
	chosen  []*choice           // its non-stutter choices
	next    state.State         // the scratch every candidate is built in
}

// successors enumerates every candidate step from s and verifies each
// against the declarative definitions: each chosen action's Def and every
// step constraint, evaluated on the merged pair. Verifying the Defs on the
// merged pair is what rejects cross-component conflicts (e.g. an action
// asserting z' = z merged with another component's change to z), and it
// fails the build on a Def that does not evaluate there.
//
// Candidates are the cross product of free-variable assignments and
// per-component choice combinations. An expression that primes no free
// variable has the same verdict for a given choice combination under every
// free assignment (unprimed variables read s, which is fixed), so those
// expressions are checked under the first free assignment only, and later
// free assignments visit only the combinations that passed them.
//
// A candidate is checked first and emitted after: every valid candidate
// is handed to emit, in enumeration order, as the one scratch state x.next
// all candidates are built in. Every buffer comes from x, the calling
// worker's scratch, so on a warm x neither a rejected nor an accepted
// candidate costs an allocation here. emit must not keep the scratch (the
// explorer's store copies the states it adds), and it sees a successor
// once per valid combination producing it: deduplication is the
// consumer's. An error from emit stops the enumeration and is returned as
// it is, so a budget error still aborts the build.
func (sys *System) successors(cs *compiledSystem, x *expandScratch, s *state.State, emit func(t *state.State) error) error {
	compiled, free := cs.comps, cs.free

	// Gather each component's choices in state s; each is a positional
	// update, so each candidate below costs one row copy.
	x.ups.Reset()
	perComp := resize(x.perComp, len(compiled))
	x.perComp = perComp
	for i, cc := range compiled {
		chs := append(perComp[i][:0], choice{action: nil}) // stutter
		for ai := range cc.actions {
			ca := &cc.actions[ai]
			first := len(x.ups.Cands)
			if err := ca.updates(s, &x.ups); err != nil {
				return fmt.Errorf("system %s: action %s: %w", sys.Name, ca.name, err)
			}
			for _, ups := range x.ups.Cands[first:] {
				s.Resolve(ups)
				chs = append(chs, choice{action: ca, ups: ups})
			}
		}
		perComp[i] = chs
	}

	// Free-variable updates come resolved from compile; most systems have
	// no free variables, in which case the outer loop body runs exactly
	// once.
	freePos := resize(x.freePos, len(free))
	freeIdx := resize(x.freeIdx, len(free))
	clear(freeIdx)
	x.freePos, x.freeIdx = freePos, freeIdx
	for i, v := range free {
		if p, ok := s.PosOf(v); !ok || p != cs.freeUps[i][0].Pos {
			return fmt.Errorf("system %s: free variable %q not bound at its layout position in state %s", sys.Name, v, s)
		}
	}

	groups := resize(x.groups, len(compiled)+1)
	idx := resize(x.idx, len(compiled))
	x.groups, x.idx = groups, idx
	x.passed = x.passed[:0]
	npassed := 0 // combinations in x.passed; with no components, one is empty

	// candidate builds the candidate of choice combination comb under the
	// current free assignment in x.next, collecting its non-stutter choices
	// in x.chosen.
	candidate := func(comb []int) state.Step {
		chosen := x.chosen[:0]
		for ci := range compiled {
			ch := &perComp[ci][comb[ci]]
			groups[ci+1] = ch.ups
			if ch.action != nil {
				chosen = append(chosen, ch)
			}
		}
		x.chosen = chosen
		s.OverwriteInto(&x.next, groups...)
		return state.Step{From: s, To: &x.next}
	}
	// emitIfDep checks the free-dependent part of st, re-checked per free
	// assignment, and emits st's successor if it holds.
	emitIfDep := func(st state.Step) error {
		ok, err := sys.holds(x.chosen, true, cs.consDep, st)
		if err != nil || !ok {
			return err
		}
		return emit(st.To)
	}

	for firstFree := true; ; firstFree = false {
		for i := range free {
			freePos[i] = cs.freeUps[i][freeIdx[i]]
		}
		groups[0] = freePos
		if firstFree {
			// Every choice combination, checked first against the chosen
			// defs and constraints that prime no free variable.
			clear(idx)
			for {
				st := candidate(idx)
				ok, err := sys.holds(x.chosen, false, cs.consIndep, st)
				if err != nil {
					return err
				}
				if ok {
					if len(free) > 0 {
						x.passed = append(x.passed, idx...)
						npassed++
					}
					if err := emitIfDep(st); err != nil {
						return err
					}
				}
				if !advance(idx, perComp) {
					break
				}
			}
		} else {
			for j, n := 0, len(idx); j < npassed; j++ {
				if err := emitIfDep(candidate(x.passed[j*n : (j+1)*n])); err != nil {
					return err
				}
			}
		}
		// Advance the free-variable counter. The LAST variable varies
		// fastest, matching value.ForEachAssignment's enumeration order, so
		// successor order — and hence state numbering — is unchanged.
		fi := len(free) - 1
		for fi >= 0 {
			freeIdx[fi]++
			if freeIdx[fi] < len(cs.freeUps[fi]) {
				break
			}
			freeIdx[fi] = 0
			fi--
		}
		if fi < 0 {
			break
		}
	}
	return nil
}

// holds evaluates on st the Def of each chosen action whose free dependence
// is freeDep, then the constraints cons, stopping at the first that fails.
func (sys *System) holds(chosen []*choice, freeDep bool, cons []compiledConstraint, st state.Step) (bool, error) {
	for _, ch := range chosen {
		if ch.action.freeDep != freeDep {
			continue
		}
		if ok, err := sys.evalStep("action", ch.action.name, ch.action.pred, st); err != nil || !ok {
			return false, err
		}
	}
	for i := range cons {
		if ok, err := sys.evalStep("constraint", cons[i].name, cons[i].pred, st); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// evalStep evaluates an action definition or step constraint, compiled
// against the system layout, on a candidate step.
func (sys *System) evalStep(kind, name string, pred form.CompiledPred, st state.Step) (bool, error) {
	ok, err := pred(st)
	if err != nil {
		return false, fmt.Errorf("system %s: %s %s on %s: %w", sys.Name, kind, name, st, err)
	}
	return ok, nil
}

// advance increments the per-component mixed-radix counter; it returns
// false when the counter wraps (all combinations exhausted).
func advance(idx []int, perComp [][]choice) bool {
	ci := 0
	for ci < len(idx) {
		idx[ci]++
		if idx[ci] < len(perComp[ci]) {
			return true
		}
		idx[ci] = 0
		ci++
	}
	return false
}

// resize returns buf with length n, reusing its capacity. Elements within
// the old capacity keep whatever they held; callers overwrite or clear them.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
