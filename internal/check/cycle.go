package check

import (
	"fmt"

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
	TrigState func(id int) bool       // Streett trigger (nil for Büchi)
	HitState  func(id int) bool       // nil = no state hits
	HitEdge   func(from, to int) bool // nil = no edge hits
}

// StateMask filters states by ID; nil allows all.
type StateMask func(id int) bool

// EdgeMask filters edges; nil allows all.
type EdgeMask func(from, to int) bool

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
}

// LassoWitness is a reachable fair cycle: the behavior
// Prefix[0..] (Cycle[0..])^ω. Prefix ends just before the cycle's first
// state; it may be empty.
type LassoWitness struct {
	PrefixIDs []int
	CycleIDs  []int
}

// ToLasso converts the witness to a semantic lasso over the graph's states.
func (w *LassoWitness) ToLasso(g *ts.Graph) *state.Lasso {
	prefix := make([]*state.State, len(w.PrefixIDs))
	for i, id := range w.PrefixIDs {
		prefix[i] = g.States[id]
	}
	cycle := make([]*state.State, len(w.CycleIDs))
	for i, id := range w.CycleIDs {
		cycle[i] = g.States[id]
	}
	return &state.Lasso{Prefix: prefix, Cycle: cycle}
}

// FindFairLasso searches for a reachable cycle satisfying the query's
// acceptance conditions. It returns nil if no such lasso exists — which,
// when the conditions encode "system fairness ∧ violated target", proves
// the target property.
//
// The search is governed by the graph's resource meter: an exhausted
// budget aborts with an *engine.BudgetError instead of returning a
// spuriously empty (property-proving) answer from a truncated search.
func FindFairLasso(g *ts.Graph, q LassoQuery) (*LassoWitness, error) {
	// Reduction preserves safety (all reachable states modulo symmetry, real
	// steps on every edge) but NOT fair-cycle structure: symmetry quotient
	// cycles need not lift to fair cycles of the full system. Refusing here
	// is what lets the rest of the pipeline thread reduction into
	// safety-only obligations without auditing every caller.
	if g.Reduced() {
		return nil, fmt.Errorf("fair-lasso search requires a full (unreduced) graph; this graph was built with -reduce")
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
	cyc := searchFairCycle(g, cycleAllowed, q.CycleEdge, q.Conds)
	if err := m.Err(); err != nil {
		// A truncated SCC decomposition proves nothing: report exhaustion.
		return nil, err
	}
	if cyc == nil {
		return nil, nil
	}

	// Phase 3: prefix path from a start state to the cycle's first state.
	path := g.PathBetween(q.StartIDs, cyc[0], func(id int) bool {
		return q.PrefixState == nil || q.PrefixState(id)
	})
	if path == nil {
		return nil, fmt.Errorf("internal: fair cycle found but unreachable from start set")
	}
	// Drop the junction state from the prefix (it is the cycle's head).
	return &LassoWitness{PrefixIDs: path[:len(path)-1], CycleIDs: cyc}, nil
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
func searchFairCycle(g *ts.Graph, sm StateMask, em EdgeMask, conds []CycleCond) []int {
	sccs := g.SCCs(sm, em)
	for _, comp := range sccs {
		if cyc := examineSCC(g, comp, sm, em, conds); cyc != nil {
			return cyc
		}
	}
	return nil
}

// examineSCC decides whether the SCC contains an accepting cycle, possibly
// recursing into sub-SCCs after removing Streett trigger states.
func examineSCC(g *ts.Graph, comp []int, sm StateMask, em EdgeMask, conds []CycleCond) []int {
	inComp := make(map[int]bool, len(comp))
	for _, id := range comp {
		inComp[id] = true
	}
	// Internal edges under the masks.
	type edge struct{ from, to int }
	var edges []edge
	for _, u := range comp {
		g.ForEachSucc(u, func(v int) bool {
			if !inComp[v] {
				return true
			}
			if em != nil && !em(u, v) {
				return true
			}
			edges = append(edges, edge{u, v})
			return true
		})
	}
	if len(edges) == 0 {
		return nil // trivial SCC: no cycle at all
	}

	// Evaluate each condition over the SCC.
	var required []cycleHit
	var removeTriggers []int
	violated := false
	for ci := range conds {
		c := &conds[ci]
		found := cycleHit{stateID: -1, from: -1, to: -1}
		have := false
		if c.HitState != nil {
			for _, id := range comp {
				if c.HitState(id) {
					found = cycleHit{stateID: id, from: -1, to: -1}
					have = true
					break
				}
			}
		}
		if !have && c.HitEdge != nil {
			for _, e := range edges {
				if c.HitEdge(e.from, e.to) {
					found = cycleHit{stateID: -1, from: e.from, to: e.to}
					have = true
					break
				}
			}
		}
		if c.Buchi {
			if !have {
				return nil // no sub-cycle of this SCC can hit either
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
			return nil
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
// 0) or an edge (stateID < 0, from/to set).
type cycleHit struct {
	stateID  int
	from, to int
}

// buildCycle constructs a closed walk within the SCC that visits every
// required state hit and traverses every required edge hit.
func buildCycle(g *ts.Graph, comp []int, inComp map[int]bool, em EdgeMask, required []cycleHit) []int {
	allowed := func(id int) bool { return inComp[id] }
	pathIn := func(from, to int) []int {
		if from == to {
			return []int{from}
		}
		// BFS within the SCC respecting the edge mask.
		prev := make(map[int]int, len(comp))
		prev[from] = -1
		queue := []int{from}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			var found []int
			g.ForEachSucc(u, func(v int) bool {
				if !allowed(v) {
					return true
				}
				if em != nil && !em(u, v) {
					return true
				}
				if _, seen := prev[v]; seen {
					return true
				}
				prev[v] = u
				if v == to {
					var path []int
					for x := v; x != -1; x = prev[x] {
						path = append(path, x)
					}
					for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
						path[i], path[j] = path[j], path[i]
					}
					found = path
					return false
				}
				queue = append(queue, v)
				return true
			})
			if found != nil {
				return found
			}
		}
		return nil // unreachable: SCC is strongly connected under the mask
	}

	start := comp[0]
	if len(required) > 0 {
		if required[0].stateID >= 0 {
			start = required[0].stateID
		} else {
			start = required[0].from
		}
	}
	walk := []int{start}
	cur := start
	extend := func(path []int) {
		walk = append(walk, path[1:]...)
		cur = walk[len(walk)-1]
	}
	for _, r := range required {
		if r.stateID >= 0 {
			if p := pathIn(cur, r.stateID); p != nil {
				extend(p)
			}
			continue
		}
		if p := pathIn(cur, r.from); p != nil {
			extend(p)
		}
		walk = append(walk, r.to)
		cur = r.to
	}
	// Close the walk.
	if cur != start {
		if p := pathIn(cur, start); p != nil {
			extend(p)
		}
	}
	// walk starts and ends at start; drop the final repetition.
	if len(walk) > 1 && walk[len(walk)-1] == start {
		walk = walk[:len(walk)-1]
	}
	return walk
}
