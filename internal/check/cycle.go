package check

import (
	"fmt"

	"opentla/internal/form"
	"opentla/internal/reduce"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// CycleCond is an acceptance condition on the set of states and edges a
// cycle visits infinitely often.
//
// A Büchi condition requires the cycle to contain a hit (a state in
// HitState or an edge in HitEdge). A Streett condition requires a hit only
// if the cycle contains a trigger state. WF and SF translate directly:
//
//	WF_v(A) as assumption:  Büchi  — hit = ¬Enabled⟨A⟩_v states ∪ ⟨A⟩_v edges
//	SF_v(A) as assumption:  Streett — trigger = Enabled⟨A⟩_v states,
//	                                   hit = ⟨A⟩_v edges
type CycleCond struct {
	Name      string
	Buchi     bool
	TrigState func(id int) bool // Streett trigger (nil for Büchi)
	HitState  func(id int) bool // nil = no state hits
	HitEdge   EdgeMask          // nil = no edge hits
	// From is the formula the condition is read from: a WF/SF assumption,
	// or the target whose violation the condition encodes. On a reduced
	// graph FindFairLasso checks that the group leaves it invariant.
	From form.Formula
}

// StateMask filters states by ID; nil allows all.
type StateMask func(id int) bool

// EdgeMask filters edges by source state and index (see
// ts.Graph.ForEachSuccEdge); nil allows all. Its labels belong to each
// edge's real successor, so a reduced graph's edges between one pair of
// states may be labelled apart.
type EdgeMask func(from, k int) bool

// LassoQuery describes a search for a reachable fair cycle.
type LassoQuery struct {
	// StartIDs are the states the prefix may start from (typically the
	// graph's initial states).
	StartIDs []int
	// PrefixState restricts the prefix path.
	PrefixState StateMask
	// CycleState/CycleEdge restrict the cycle.
	CycleState StateMask
	CycleEdge  EdgeMask
	// Conds are the acceptance conditions the cycle must satisfy (e.g. the
	// fairness assumptions of the system, plus conditions encoding the
	// violation of the target property).
	Conds []CycleCond
	// Target is the formula whose violation the masks encode. On a reduced
	// graph FindFairLasso checks that the group leaves it invariant.
	Target form.Formula
}

// LassoWitness is a reachable fair cycle, by its edges (see
// ts.Graph.ForEachSuccEdge): PrefixEdges lead from a start state to the
// cycle's first state, and CycleEdges lead from there back to it. The
// prefix may be empty; the cycle never is. The lasso's states are read off
// its edges, so a reduced graph's witness can be lifted.
type LassoWitness struct {
	PrefixEdges, CycleEdges []int
}

// start returns the id of the lasso's first state.
func (w *LassoWitness) start(g *ts.Graph) int {
	if len(w.PrefixEdges) > 0 {
		return g.EdgeSource(w.PrefixEdges[0])
	}
	return g.EdgeSource(w.CycleEdges[0])
}

// ToLasso converts the witness to a semantic lasso: the witness lifted to
// a behavior of the system (see ts.Graph.Lift), with the cycle unrolled
// until its real states close it. Once round the quotient cycle moves the
// cycle's first state by a permutation τ, so it closes after at most ord(τ)
// rounds, each of which meets every state and edge label the quotient
// cycle meets, since those are constant on orbits. A cycle that does not
// close then, as under a sabotaged canonicalizer, is an error. On an
// unreduced graph τ is the identity: the lasso's states are the graph's,
// and the cycle closes in round 1.
func (w *LassoWitness) ToLasso(g *ts.Graph) (*state.Lasso, error) {
	lifted, sigma := g.Lift(reduce.Perm{}, w.PrefixEdges)
	prefix := append(state.Behavior{g.States[w.start(g)]}, lifted...)
	head := prefix[len(prefix)-1] // the cycle's first state
	prefix = prefix[:len(prefix)-1]
	cycle := state.Behavior{head}
	for round, order := 1, 0; ; round++ {
		states, next := g.Lift(sigma, w.CycleEdges)
		if order == 0 {
			order = sigma.Inverse().Compose(next).Order()
		}
		last := states[len(states)-1]
		cycle = append(cycle, states[:len(states)-1]...)
		if last.Equal(head) {
			return &state.Lasso{Prefix: prefix, Cycle: cycle}, nil
		}
		if round >= order {
			return nil, fmt.Errorf("internal: the lifted cycle through %s does not close after %d rounds", head, round)
		}
		cycle = append(cycle, last)
		sigma = next
	}
}

// FindFairLasso searches for a reachable cycle satisfying the query's
// acceptance conditions. It returns nil if no such lasso exists — which,
// when the conditions encode "system fairness ∧ violated target", proves
// the target property.
//
// On a symmetry-reduced graph the search runs on the orbit representatives
// (Emerson & Sistla, TOPLAS 1997). It is exact when the group leaves the
// query's target and each condition's formula invariant: ENABLED and
// "taken" are then constant on orbits, and edge labels are read on each
// edge's real successor, so a fair cycle of the full graph maps to one of
// the quotient and a fair quotient cycle lifts to a fair cycle of the full
// graph (see LassoWitness.ToLasso). A query whose target or a condition the
// group does not leave invariant, or that names none, is refused with an
// error naming it.
//
// The search is governed by the graph's resource meter: an exhausted
// budget aborts with an *engine.BudgetError instead of returning a
// spuriously empty (property-proving) answer from a truncated search.
func FindFairLasso(g *ts.Graph, q LassoQuery) (*LassoWitness, error) {
	if sym := g.Symmetry(); sym != nil {
		if err := orbitInvariant(sym, q); err != nil {
			return nil, err
		}
	}
	m := g.Meter()
	if err := m.Tick(); err != nil {
		return nil, err
	}
	// Phase 1: states reachable under the prefix mask. The same search
	// gives phase 3 its prefix.
	reach := g.Search(q.StartIDs, q.PrefixState, nil, -1)
	if err := m.Err(); err != nil {
		return nil, err
	}

	// Phase 2: fair-cycle search inside reachable ∩ CycleState.
	cycleAllowed := func(id int) bool {
		return reach.Reached(id) && (q.CycleState == nil || q.CycleState(id))
	}
	cyc, found := searchFairCycle(g, cycleAllowed, q.CycleEdge, q.Conds)
	if err := m.Err(); err != nil {
		// A truncated SCC decomposition proves nothing: report exhaustion.
		return nil, err
	}
	if !found {
		return nil, nil
	}

	// Phase 3: the prefix from a start state to the cycle's first state.
	prefix, _ := reach.Path(cyc.Start)
	return &LassoWitness{PrefixEdges: prefix.Edges, CycleEdges: cyc.Edges}, nil
}

// orbitInvariant returns why a search for q on a graph reduced under sym
// would not be exact, or nil: the target and every condition must name a
// formula the group leaves invariant.
func orbitInvariant(sym *reduce.Symmetry, q LassoQuery) error {
	fs, what := []form.Formula{q.Target}, []string{"target"}
	for _, c := range q.Conds {
		fs, what = append(fs, c.From), append(what, "condition "+c.Name)
	}
	for i, f := range fs {
		if f == nil {
			return fmt.Errorf("fair-lasso search on a symmetry-reduced graph: the %s names no formula to check against the group", what[i])
		}
		if err := sym.CheckFormulaInvariant(f); err != nil {
			return fmt.Errorf("fair-lasso search on a symmetry-reduced graph: the group does not leave the %s %s invariant: %w", what[i], f, err)
		}
	}
	return nil
}

// searchFairCycle finds a cycle within the allowed subgraph satisfying all
// conditions, by recursive SCC refinement (the standard Streett emptiness
// algorithm, extended with edge hits):
//
//   - a Büchi condition with no hit in an SCC rules out the whole SCC;
//   - a Streett condition with a trigger but no hit forces removal of the
//     trigger states, and the SCC is re-decomposed.
//
// It returns the cycle as a closed path and whether it found one.
func searchFairCycle(g *ts.Graph, sm StateMask, em EdgeMask, conds []CycleCond) (ts.Path, bool) {
	sccs := g.SCCs(sm, em)
	for _, comp := range sccs {
		if cyc, ok := examineSCC(g, comp, sm, em, conds); ok {
			return cyc, true
		}
	}
	return ts.Path{}, false
}

// examineSCC decides whether the SCC contains an accepting cycle, possibly
// recursing into sub-SCCs after removing Streett trigger states.
func examineSCC(g *ts.Graph, comp []int, sm StateMask, em EdgeMask, conds []CycleCond) (ts.Path, bool) {
	inComp := make(map[int]bool, len(comp))
	for _, id := range comp {
		inComp[id] = true
	}
	// Internal edges under the masks.
	type edge struct{ from, k int }
	var edges []edge
	for _, u := range comp {
		g.ForEachSuccEdge(u, func(k, v int) bool {
			if !inComp[v] {
				return true
			}
			if em != nil && !em(u, k) {
				return true
			}
			edges = append(edges, edge{u, k})
			return true
		})
	}
	if len(edges) == 0 {
		return ts.Path{}, false // trivial SCC: no cycle at all
	}

	// Evaluate each condition over the SCC.
	var required []cycleHit
	var removeTriggers []int
	violated := false
	for ci := range conds {
		c := &conds[ci]
		found := cycleHit{stateID: -1, from: -1, k: -1}
		have := false
		if c.HitState != nil {
			for _, id := range comp {
				if c.HitState(id) {
					found = cycleHit{stateID: id, from: -1, k: -1}
					have = true
					break
				}
			}
		}
		if !have && c.HitEdge != nil {
			for _, e := range edges {
				if c.HitEdge(e.from, e.k) {
					found = cycleHit{stateID: -1, from: e.from, k: e.k}
					have = true
					break
				}
			}
		}
		if c.Buchi {
			if !have {
				return ts.Path{}, false // no sub-cycle of this SCC can hit either
			}
			required = append(required, found)
			continue
		}
		// Streett: check trigger.
		triggered := false
		if c.TrigState != nil {
			for _, id := range comp {
				if c.TrigState(id) {
					triggered = true
					break
				}
			}
		}
		if !triggered {
			continue // condition vacuously satisfied by any cycle in SCC
		}
		if have {
			required = append(required, found)
			continue
		}
		// Triggered but unhittable: cycles through trigger states are
		// unfair; remove them and recurse.
		violated = true
		for _, id := range comp {
			if c.TrigState(id) {
				removeTriggers = append(removeTriggers, id)
			}
		}
	}
	if violated {
		removed := make(map[int]bool, len(removeTriggers))
		for _, id := range removeTriggers {
			removed[id] = true
		}
		if len(removed) == len(comp) {
			return ts.Path{}, false
		}
		subSM := func(id int) bool {
			if !inComp[id] || removed[id] {
				return false
			}
			return sm == nil || sm(id)
		}
		return searchFairCycle(g, subSM, em, conds)
	}

	// Accepting SCC: build a closed walk visiting every required hit.
	return buildCycle(g, comp, inComp, em, required), true
}

// cycleHit is a visit requirement for the witness cycle: a state (stateID ≥
// 0) or an edge (stateID < 0, from and the edge's index k set).
type cycleHit struct {
	stateID int
	from, k int
}

// buildCycle constructs a closed walk within the SCC that visits every
// required state hit and traverses every required edge hit.
func buildCycle(g *ts.Graph, comp []int, inComp map[int]bool, em EdgeMask, required []cycleHit) ts.Path {
	allowed := func(id int) bool { return inComp[id] }
	start := comp[0]
	if len(required) > 0 {
		if required[0].stateID >= 0 {
			start = required[0].stateID
		} else {
			start = required[0].from
		}
	}
	var edges []int
	cur := start
	// walkTo extends the walk by a shortest path from cur to id. The SCC is
	// strongly connected under the edge mask, so every path asked for
	// exists.
	walkTo := func(id int) {
		p, _ := g.Search([]int{cur}, allowed, em, id).Path(id)
		edges, cur = append(edges, p.Edges...), id
	}
	for _, r := range required {
		if r.stateID >= 0 {
			walkTo(r.stateID)
			continue
		}
		walkTo(r.from)
		edges, cur = append(edges, r.k), g.EdgeTarget(r.k)
	}
	walkTo(start)
	if len(edges) > 0 {
		return ts.Path{Start: start, Edges: edges}
	}
	// The walk never left start: close it with a loop at start if the masks
	// allow one, else with a round trip through start's first allowed edge.
	first, loop := -1, -1
	g.ForEachSuccEdge(start, func(k, v int) bool {
		if !inComp[v] || em != nil && !em(start, k) {
			return true
		}
		if first < 0 {
			first = k
		}
		if v == start {
			loop = k
			return false
		}
		return true
	})
	if loop >= 0 {
		return ts.Path{Start: start, Edges: []int{loop}}
	}
	edges, cur = []int{first}, g.EdgeTarget(first)
	walkTo(start)
	return ts.Path{Start: start, Edges: edges}
}
