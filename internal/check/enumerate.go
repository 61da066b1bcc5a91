package check

import (
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// AllStates enumerates every state over the given variables and domains.
// It is intended for the small universes used in semantic property tests.
func AllStates(vars []string, domains map[string][]value.Value) []*state.State {
	var out []*state.State
	value.ForEachAssignment(vars, domains, func(a map[string]value.Value) bool {
		out = append(out, state.New(a))
		return true
	})
	return out
}

// ForAllLassos enumerates every lasso over the universe of states with
// prefix length ≤ maxPrefix and cycle length in [1, maxCycle], calling f
// for each; enumeration stops early if f returns false. States in a lasso
// are arbitrary (behaviors in TLA are unconstrained state sequences).
// ForAllLassos reports whether enumeration ran to completion.
//
// The number of lassos is |S|^(p+c) summed over all shapes, so keep the
// universe tiny (this is the finite-universe "validity" used by the
// semantic tests of Propositions 3 and 4 and the ⊳ equivalences).
func ForAllLassos(universe []*state.State, maxPrefix, maxCycle int, f func(*state.Lasso) bool) bool {
	seq := make([]*state.State, maxPrefix+maxCycle)
	var rec func(i, total, p int) bool
	rec = func(i, total, p int) bool {
		if i == total {
			prefix := make([]*state.State, p)
			copy(prefix, seq[:p])
			cycle := make([]*state.State, total-p)
			copy(cycle, seq[p:total])
			return f(&state.Lasso{Prefix: prefix, Cycle: cycle})
		}
		for _, s := range universe {
			seq[i] = s
			if !rec(i+1, total, p) {
				return false
			}
		}
		return true
	}
	for p := 0; p <= maxPrefix; p++ {
		for c := 1; c <= maxCycle; c++ {
			if !rec(0, p+c, p) {
				return false
			}
		}
	}
	return true
}

// GraphLassos enumerates lassos along the edges of a graph: simple paths
// from initial states (length ≤ maxPrefix) followed by cycles (length ≤
// maxCycle) along graph edges. Unlike ForAllLassos, consecutive states are
// graph successors, so each lasso is a behavior of the system. Enumeration
// stops early if f returns false; GraphLassos reports whether it ran to
// completion.
func GraphLassos(g *ts.Graph, maxPrefix, maxCycle int, f func(*state.Lasso) bool) bool {
	toStates := func(ids []int) []*state.State {
		out := make([]*state.State, len(ids))
		for i, id := range ids {
			out[i] = g.States[id]
		}
		return out
	}
	// findCycles enumerates cycles anchored at start (start, c1, …, cm) with
	// edges start→c1→…→cm→start and total length ≤ maxCycle.
	var findCycles func(start, cur int, cyc, prefix []int) bool
	findCycles = func(start, cur int, cyc, prefix []int) bool {
		return g.ForEachSuccEdge(cur, func(_, nxt int) bool {
			if nxt == start {
				cycle := make([]int, 0, len(cyc)+1)
				cycle = append(cycle, start)
				cycle = append(cycle, cyc...)
				return f(&state.Lasso{Prefix: toStates(prefix), Cycle: toStates(cycle)})
			}
			if len(cyc)+2 <= maxCycle {
				return findCycles(start, nxt, append(cyc, nxt), prefix)
			}
			return true
		})
	}
	// walk extends the prefix path; the last path element is the cycle head.
	var walk func(path []int) bool
	walk = func(path []int) bool {
		head := path[len(path)-1]
		if !findCycles(head, head, nil, path[:len(path)-1]) {
			return false
		}
		if len(path)-1 < maxPrefix {
			return g.ForEachSuccEdge(head, func(_, nxt int) bool {
				next := make([]int, 0, len(path)+1)
				next = append(next, path...)
				next = append(next, nxt)
				return walk(next)
			})
		}
		return true
	}
	for _, init := range g.Inits {
		if !walk([]int{init}) {
			return false
		}
	}
	return true
}
