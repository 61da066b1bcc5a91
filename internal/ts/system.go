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
	"sort"
	"sync"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/store"
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
// specifications plus optional step and initial constraints, over declared
// finite variable domains.
//
// A System must not be mutated after its first Successors call, which
// compiles it once and keeps the result (Build and BuildWith compile afresh
// on every call).
type System struct {
	Name            string
	Components      []*spec.Component
	Constraints     []StepConstraint
	InitConstraints []form.Expr
	// Domains assigns a finite domain to every variable.
	Domains map[string][]value.Value
	// MaxStates bounds graph construction (default 500000).
	MaxStates int
	// Workers is the goroutine count for parallel frontier exploration
	// (0 = GOMAXPROCS). The built graph is identical at any setting.
	Workers int
	// Cache, when non-nil, is consulted before exploring and persisted to
	// after a complete build (see GraphCache). Entries are keyed by
	// CanonicalDesc, so Name/Workers/MaxStates do not affect cache identity.
	Cache GraphCache
	// Resume, when true (and Cache is set), restores a checkpoint saved by
	// an earlier budget-exhausted run and continues the exploration from its
	// last completed level instead of restarting.
	Resume bool
	// Reduce, when non-nil with enabled options, requests symmetry
	// reduction: canonicalization of every state to its orbit
	// representative (see internal/reduce). An invalid symmetry declaration
	// is a BuildWith error — at this level the declaration is the user's claim
	// and a wrong claim must fail loudly, not silently explore less.
	// Liveness checks refuse reduced graphs (see check.FindFairLasso);
	// safety checks must iterate real steps via ForEachSuccStep.
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

// reduceInits converts the init constraints to named expressions.
func (sys *System) reduceInits() []reduce.NamedExpr {
	out := make([]reduce.NamedExpr, 0, len(sys.InitConstraints))
	for i, ic := range sys.InitConstraints {
		out = append(out, reduce.NamedExpr{Name: fmt.Sprintf("init-%d", i), E: ic})
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
	for _, ic := range sys.InitConstraints {
		for _, v := range form.AllVars(ic) {
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

func (sys *System) maxStates() int {
	if sys.MaxStates <= 0 {
		return 500000
	}
	return sys.MaxStates
}

// compiledComponent caches per-component data used during successor
// generation.
type compiledComponent struct {
	comp    *spec.Component
	owned   []string
	actions []compiledAction
}

// compiledAction is one action definition compiled twice against the system
// layout: as a successor generator proposing owned-variable updates, and as
// a predicate re-checked on every merged step.
type compiledAction struct {
	name    string
	pred    form.CompiledPred // Def compiled against the system layout
	updates func(*state.State) ([][]state.PosUpdate, error)
	primed  []string // primed variables of Def, for free-dependence analysis
}

// compiledConstraint is a step constraint with its primed variables
// precomputed (see successors: a constraint whose primed variables avoid the
// free set has the same verdict for every free assignment).
type compiledConstraint struct {
	name   string
	pred   form.CompiledPred // the constraint compiled against the system layout
	primed []string
}

// compiledSystem caches everything successor generation needs: per-component
// actions with their derived update generators, the step constraints, and
// the free variables with each domain value resolved to a positional update.
// It is immutable after compile and shared across exploration workers.
type compiledSystem struct {
	comps       []compiledComponent
	constraints []compiledConstraint
	free        []string
	freeUps     [][]state.PosUpdate // freeUps[i][j]: free[i] := its j-th domain value
}

func (sys *System) compile() (*compiledSystem, error) {
	// All states of a system bind exactly sys.Vars(); compiling every
	// declarative definition against that layout once moves variable
	// resolution and stutter-equality checks out of the per-candidate loop.
	layout := sys.Vars()
	ctx := sys.Ctx()
	cs := &compiledSystem{comps: make([]compiledComponent, len(sys.Components))}
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
				name: a.Name, pred: form.CompilePred(a.Def, layout),
				updates: updates, primed: form.PrimedVars(a.Def),
			})
		}
		cs.comps[i] = cc
	}
	for _, sc := range sys.Constraints {
		cs.constraints = append(cs.constraints, compiledConstraint{
			name: sc.Name, pred: form.CompilePred(sc.Action, layout),
			primed: form.PrimedVars(sc.Action),
		})
	}
	cs.free = sys.FreeVars()
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
// assignments satisfy every component's Init and every initial constraint.
func (sys *System) InitialStates() ([]*state.State, error) {
	return sys.initialStates(engine.NoLimit())
}

// initialStates is InitialStates under a resource meter: the enumeration is
// a cooperative cancellation point, and a statically oversized instance
// fails informatively with an *engine.BudgetError instead of grinding.
func (sys *System) initialStates(m *engine.Meter) ([]*state.State, error) {
	vars := sys.Vars()
	total, err := assignmentCount(vars, sys.Domains)
	if err != nil {
		return nil, err
	}
	if total > 10_000_000 {
		return nil, &engine.BudgetError{
			Reason: fmt.Sprintf("system %s: initial-state space %d exceeds the enumeration limit; shrink the instance or its domains", sys.Name, total),
			Stats:  m.Stats(),
		}
	}
	var preds []form.Expr
	for _, c := range sys.Components {
		if c.Init != nil {
			preds = append(preds, c.Init)
		}
	}
	preds = append(preds, sys.InitConstraints...)
	// The enumeration can visit millions of assignments; compiled predicates
	// keep the per-assignment cost to positional reads.
	compiled := make([]form.CompiledPred, len(preds))
	for i, p := range preds {
		compiled[i] = form.CompilePred(p, vars)
	}
	// Positional enumeration in one scratch state, last variable fastest
	// (value.ForEachAssignment's order); vars is sorted, so variable i sits
	// at binding position i, and only accepted states are materialized.
	// Domain values are resolved to codes once, not per assignment.
	base, doms, err := sys.domainUpdates(vars, vars)
	if err != nil {
		return nil, err
	}
	ups := make([]state.PosUpdate, len(vars))
	for i := range ups {
		ups[i] = doms[i][0]
	}
	scratch := state.New(nil)
	idx := make([]int, len(vars))
	var out []*state.State
	for {
		if err := m.Tick(); err != nil {
			return nil, err
		}
		base.OverwriteInto(scratch, ups)
		accept := true
		for i, p := range compiled {
			ok, err := p(state.Step{From: scratch})
			if err != nil {
				return nil, fmt.Errorf("system %s: evaluating Init %s on %s: %w", sys.Name, preds[i], scratch, err)
			}
			if !ok {
				accept = false
				break
			}
		}
		if accept {
			out = append(out, scratch.Clone())
		}
		vi := len(idx) - 1
		for vi >= 0 {
			idx[vi]++
			if idx[vi] < len(doms[vi]) {
				break
			}
			idx[vi] = 0
			vi--
		}
		if vi < 0 {
			return out, nil
		}
		for i := vi; i < len(ups); i++ {
			ups[i] = doms[i][idx[i]]
		}
	}
}

// assignmentCount returns the number of assignments to vars over their
// domains, saturating past 2^30.
func assignmentCount(vars []string, domains map[string][]value.Value) (int, error) {
	n := 1
	for _, v := range vars {
		d := domains[v]
		if len(d) == 0 {
			return 0, fmt.Errorf("variable %q has no domain", v)
		}
		n *= len(d)
		if n > 1<<30 {
			return n, nil
		}
	}
	return n, nil
}

// choice is one component's contribution to a joint step with its update
// resolved to positional form: either a stutter (action == nil, no updates)
// or a named action reassigning its owned variables. Its updates are
// resolved to value codes once and reused by every choice combination, so
// each candidate successor is built with a single row copy. defFreeDep
// records whether the action's definition primes any free variable; when it
// does not, its verdict on a candidate step is the same under every free
// assignment and is cached per choice combination.
type choice struct {
	action     *compiledAction
	ups        []state.PosUpdate
	defFreeDep bool
}

// Successors computes all states t such that ⟨s, t⟩ satisfies every
// component's [N_i]_⟨m_i,x_i⟩, every step constraint, and changes free
// variables arbitrarily. The result always includes s itself (stuttering).
// The system is compiled on the first call only (see System).
func (sys *System) Successors(s *state.State) ([]*state.State, error) {
	sys.succOnce.Do(func() { sys.succCS, sys.succErr = sys.compile() })
	if sys.succErr != nil {
		return nil, sys.succErr
	}
	return sys.successors(sys.succCS, s)
}

// Combo-cache verdicts for the free-independent part of a step's validity.
const (
	comboUnknown int8 = iota
	comboPass
	comboFail
)

// maxComboCache bounds the per-state verdict cache; a system with more
// choice combinations than this per state falls back to uncached checking.
const maxComboCache = 1 << 20

// successors enumerates every candidate step from s and verifies each
// against the declarative definitions: each chosen action's Def and every
// step constraint, evaluated on the merged pair. Verifying Def on the merged
// pair is what rejects cross-component conflicts (e.g. an action asserting
// z' = z merged with another component's change to z).
//
// Candidates are the cross product of free-variable assignments and
// per-component choice combinations. An expression that primes no free
// variable has the same verdict for a given choice combination under every
// free assignment (unprimed variables read s, which is fixed), so those
// verdicts are computed once per combination and cached.
func (sys *System) successors(cs *compiledSystem, s *state.State) ([]*state.State, error) {
	compiled, free := cs.comps, cs.free
	freeSet := make(map[string]bool, len(free))
	for _, v := range free {
		freeSet[v] = true
	}
	primesFree := func(vars []string) bool {
		for _, v := range vars {
			if freeSet[v] {
				return true
			}
		}
		return false
	}

	// Split the step constraints by free-dependence.
	var consIndep, consDep []*compiledConstraint
	for i := range cs.constraints {
		c := &cs.constraints[i]
		if primesFree(c.primed) {
			consDep = append(consDep, c)
		} else {
			consIndep = append(consIndep, c)
		}
	}

	// Gather each component's choices in state s; each is a positional
	// update, so each candidate below costs one slice copy.
	perComp := make([][]choice, len(compiled))
	comboCount := 1
	for i, cc := range compiled {
		chs := []choice{{action: nil}} // stutter
		for ai := range cc.actions {
			ca := &cc.actions[ai]
			dep := primesFree(ca.primed)
			cands, err := ca.updates(s)
			if err != nil {
				return nil, fmt.Errorf("system %s: action %s: %w", sys.Name, ca.name, err)
			}
			for _, ups := range cands {
				s.Resolve(ups)
				chs = append(chs, choice{action: ca, ups: ups, defFreeDep: dep})
			}
		}
		perComp[i] = chs
		if comboCount <= maxComboCache {
			comboCount *= len(chs)
		}
	}
	var comboCache []int8
	strides := make([]int, len(compiled))
	if comboCount <= maxComboCache {
		comboCache = make([]int8, comboCount)
		stride := 1
		for ci := range compiled {
			strides[ci] = stride
			stride *= len(perComp[ci])
		}
	}

	// Free-variable updates come resolved from compile; most systems have
	// no free variables, in which case the outer loop body runs exactly
	// once.
	freePos := make([]state.PosUpdate, len(free))
	freeIdx := make([]int, len(free))
	for i, v := range free {
		if p, ok := s.PosOf(v); !ok || p != cs.freeUps[i][0].Pos {
			return nil, fmt.Errorf("system %s: free variable %q not bound at its layout position in state %s", sys.Name, v, s)
		}
	}

	seen := store.NewSet() // fingerprint dedup; Key() stays out of this hot path
	var out []*state.State
	groups := make([][]state.PosUpdate, len(compiled)+1)
	idx := make([]int, len(compiled))
	var chosen []*choice
	// All candidates are built in one goroutine-local scratch state; only
	// accepted ones are materialized (Clone), so rejected and duplicate
	// candidates cost no allocation.
	scratch := state.New(nil)

	for {
		for i := range free {
			freePos[i] = cs.freeUps[i][freeIdx[i]]
		}
		groups[0] = freePos
		// Enumerate per-component choice combinations under this free
		// assignment.
		for i := range idx {
			idx[i] = 0
		}
		for {
			cv, lin := comboUnknown, 0
			if comboCache != nil {
				for ci := range idx {
					lin += idx[ci] * strides[ci]
				}
				cv = comboCache[lin]
				if cv == comboFail {
					// Known invalid under every free assignment: skip
					// without even building the candidate.
					if !advance(idx, perComp) {
						break
					}
					continue
				}
			}
			chosen = chosen[:0]
			for ci := range compiled {
				ch := &perComp[ci][idx[ci]]
				groups[ci+1] = ch.ups
				if ch.action != nil {
					chosen = append(chosen, ch)
				}
			}
			s.OverwriteInto(scratch, groups...)
			if !seen.Has(scratch) {
				st := state.Step{From: s, To: scratch}
				valid := true
				if cv == comboUnknown {
					// Free-independent part: chosen defs and constraints
					// that prime no free variable.
					for _, ch := range chosen {
						if ch.defFreeDep {
							continue
						}
						ok, err := sys.evalStep("action", ch.action.name, ch.action.pred, st)
						if err != nil {
							return nil, err
						}
						if !ok {
							valid = false
							break
						}
					}
					if valid {
						for _, c := range consIndep {
							ok, err := sys.evalStep("constraint", c.name, c.pred, st)
							if err != nil {
								return nil, err
							}
							if !ok {
								valid = false
								break
							}
						}
					}
					if comboCache != nil {
						if valid {
							comboCache[lin] = comboPass
						} else {
							comboCache[lin] = comboFail
						}
					}
				}
				if valid {
					// Free-dependent part, re-checked per free assignment.
					for _, ch := range chosen {
						if !ch.defFreeDep {
							continue
						}
						ok, err := sys.evalStep("action", ch.action.name, ch.action.pred, st)
						if err != nil {
							return nil, err
						}
						if !ok {
							valid = false
							break
						}
					}
					if valid {
						for _, c := range consDep {
							ok, err := sys.evalStep("constraint", c.name, c.pred, st)
							if err != nil {
								return nil, err
							}
							if !ok {
								valid = false
								break
							}
						}
					}
				}
				if valid {
					t := scratch.Clone()
					seen.Add(t)
					out = append(out, t)
				}
			}
			if !advance(idx, perComp) {
				break
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
	return out, nil
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
