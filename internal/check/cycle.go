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

// LassoWitness is a reachable fair cycle: the behavior
// Prefix[0..] (Cycle[0..])^ω. Prefix ends just before the cycle's first
// state; it may be empty. PrefixEdges[i] is the edge (see
// ts.Graph.ForEachSuccEdge) from PrefixIDs[i] to the next state of the
// lasso, and CycleEdges[i] the edge from CycleIDs[i] to the next state of
// the cycle, so a reduced graph's witness can be lifted.
type LassoWitness struct {
	PrefixIDs, PrefixEdges []int
	CycleIDs, CycleEdges   []int
}

// ToLasso converts the witness to a semantic lasso. On an unreduced graph
// its states are the graph's. On a reduced graph it is the witness lifted
// to a behavior of the system (see ts.Graph.Lift), with the cycle unrolled
// until its real states close it: once round the quotient cycle moves the
// cycle's first state by a permutation τ, so it closes after at most ord(τ)
// rounds, each of which meets every state and edge label the quotient
// cycle meets, since those are constant on orbits. A cycle that does not
// close then, as under a sabotaged canonicalizer, is an error.
func (w *LassoWitness) ToLasso(g *ts.Graph) (*state.Lasso, error) {
	if !g.Reduced() {
		return &state.Lasso{Prefix: g.Behavior(w.PrefixIDs), Cycle: g.Behavior(w.CycleIDs)}, nil
	}
	start := w.CycleIDs[0]
	if len(w.PrefixIDs) > 0 {
		start = w.PrefixIDs[0]
	}
	lifted, sigma := g.Lift(reduce.Perm{}, w.PrefixEdges)
	prefix := append(state.Behavior{g.States[start]}, lifted...)
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
	// Phase 1: states reachable under the prefix mask.
	reachable := reachableFrom(g, q.StartIDs, q.PrefixState)
	if err := m.Err(); err != nil {
		return nil, err
	}

	// Phase 2: fair-cycle search inside reachable ∩ CycleState.
	cycleAllowed := func(id int) bool {
		if !reachable[id] {
			return false
		}
		return q.CycleState == nil || q.CycleState(id)
	}
	cyc, cycEdges := searchFairCycle(g, cycleAllowed, q.CycleEdge, q.Conds)
	if err := m.Err(); err != nil {
		// A truncated SCC decomposition proves nothing: report exhaustion.
		return nil, err
	}
	if cyc == nil {
		return nil, nil
	}

	// Phase 3: prefix path from a start state to the cycle's first state.
	path, edges := g.PathEdges(q.StartIDs, cyc[0], func(id int) bool {
		return q.PrefixState == nil || q.PrefixState(id)
	}, nil)
	if path == nil {
		return nil, fmt.Errorf("internal: fair cycle found but unreachable from start set")
	}
	// Drop the junction state from the prefix (it is the cycle's head).
	return &LassoWitness{PrefixIDs: path[:len(path)-1], PrefixEdges: edges, CycleIDs: cyc, CycleEdges: cycEdges}, nil
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

// reachableFrom computes the set of states reachable from starts through
// states the mask allows (starts failing it are excluded).
func reachableFrom(g *ts.Graph, starts []int, sm StateMask) []bool {
	seen := make([]bool, len(g.States))
	var queue []int
	for _, s := range starts {
		if sm != nil && !sm(s) {
			continue
		}
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		g.ForEachSucc(u, func(v int) bool {
			if seen[v] {
				return true
			}
			if sm != nil && !sm(v) {
				return true
			}
			seen[v] = true
			queue = append(queue, v)
			return true
		})
	}
	return seen
}

// searchFairCycle finds a cycle within the allowed subgraph satisfying all
// conditions, by recursive SCC refinement (the standard Streett emptiness
// algorithm, extended with edge hits):
//
//   - a Büchi condition with no hit in an SCC rules out the whole SCC;
//   - a Streett condition with a trigger but no hit forces removal of the
//     trigger states, and the SCC is re-decomposed.
//
// It returns the cycle's states and the edge leaving each.
func searchFairCycle(g *ts.Graph, sm StateMask, em EdgeMask, conds []CycleCond) (cycle, edges []int) {
	sccs := g.SCCs(sm, em)
	for _, comp := range sccs {
		if cyc, es := examineSCC(g, comp, sm, em, conds); cyc != nil {
			return cyc, es
		}
	}
	return nil, nil
}

// examineSCC decides whether the SCC contains an accepting cycle, possibly
// recursing into sub-SCCs after removing Streett trigger states.
func examineSCC(g *ts.Graph, comp []int, sm StateMask, em EdgeMask, conds []CycleCond) (cycle, cycleEdges []int) {
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
		return nil, nil // trivial SCC: no cycle at all
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
				return nil, nil // no sub-cycle of this SCC can hit either
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
			return nil, nil
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
	return buildCycle(g, comp, inComp, em, required)
}

// cycleHit is a visit requirement for the witness cycle: a state (stateID ≥
// 0) or an edge (stateID < 0, from and the edge's index k set).
type cycleHit struct {
	stateID int
	from, k int
}

// buildCycle constructs a closed walk within the SCC that visits every
// required state hit and traverses every required edge hit, and returns
// its states and the edge leaving each.
func buildCycle(g *ts.Graph, comp []int, inComp map[int]bool, em EdgeMask, required []cycleHit) (walk, walkEdges []int) {
	allowed := func(id int) bool { return inComp[id] }
	// The SCC is strongly connected under the edge mask, so every path
	// asked for exists.
	pathIn := func(from, to int) ([]int, []int) { return g.PathEdges([]int{from}, to, allowed, em) }

	start := comp[0]
	if len(required) > 0 {
		if required[0].stateID >= 0 {
			start = required[0].stateID
		} else {
			start = required[0].from
		}
	}
	walk = []int{start}
	cur := start
	extend := func(path, edges []int) {
		if path != nil {
			walk = append(walk, path[1:]...)
			walkEdges = append(walkEdges, edges...)
			cur = walk[len(walk)-1]
		}
	}
	for _, r := range required {
		if r.stateID >= 0 {
			extend(pathIn(cur, r.stateID))
			continue
		}
		extend(pathIn(cur, r.from))
		walk = append(walk, g.EdgeTarget(r.k))
		walkEdges = append(walkEdges, r.k)
		cur = walk[len(walk)-1]
	}
	// Close the walk.
	if cur != start {
		extend(pathIn(cur, start))
	}
	// walk starts and ends at start; drop the final repetition.
	if len(walk) > 1 && walk[len(walk)-1] == start {
		return walk[:len(walk)-1], walkEdges
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
		return walk, []int{loop}
	}
	walk, walkEdges = append(walk, g.EdgeTarget(first)), []int{first}
	extend(pathIn(walk[1], start))
	return walk[:len(walk)-1], walkEdges
}
