package models

import (
	"fmt"
	"math/rand"
	"testing"

	"opentla/internal/ts"
)

// TestSearchMatchesFixpoint checks ts.Graph.Search against naive oracles on
// every registry graph, under -reduce off and sym, with seeded random
// starts, state filters and edge filters:
//
//   - the states it reaches are the least fixpoint of "a start the state
//     filter admits, or the target of an admitted edge from a reached state
//     to an admitted state";
//   - every path it returns is a shortest such path, by the fixpoint's
//     round in which the state first appears;
//   - the path's edges chain: it starts at an admitted start, edge i's
//     target is edge i+1's source, every edge and state on it is admitted,
//     and it ends at the state asked for;
//   - a search that stops at a target returns the same path to it.
func TestSearchMatchesFixpoint(t *testing.T) {
	for _, m := range All() {
		for _, rd := range []string{"off", "sym"} {
			t.Run(m.Name+"/"+rd, func(t *testing.T) {
				g := buildModel(t, m, nil, 1)
				if rd == "sym" {
					g = buildModel(t, m, symConfig(m), 1)
				}
				// The source of every edge, read off the adjacency.
				source := make([]int, g.NumEdges())
				for from := range g.States {
					g.ForEachSuccEdge(from, func(k, _ int) bool {
						source[k] = from
						return true
					})
				}
				for seed := int64(1); seed <= 8; seed++ {
					searchTrial(t, g, source, rand.New(rand.NewSource(seed)), seed)
				}
			})
		}
	}
}

func searchTrial(t *testing.T, g *ts.Graph, source []int, rng *rand.Rand, seed int64) {
	t.Helper()
	n := len(g.States)
	starts := append([]int(nil), g.Inits...)
	var allowed func(int) bool
	var edge func(from, k int) bool
	if seed > 1 { // seed 1 searches the whole graph from its initial states
		starts = nil
		for i, ns := 0, 1+rng.Intn(3); i < ns; i++ {
			starts = append(starts, rng.Intn(n))
		}
		inState, inEdge := make([]bool, n), make([]bool, g.NumEdges())
		for i := range inState {
			inState[i] = rng.Intn(5) > 0
		}
		for k := range inEdge {
			inEdge[k] = rng.Intn(4) > 0
		}
		allowed = func(id int) bool { return inState[id] }
		edge = func(from, k int) bool {
			if source[k] != from {
				t.Fatalf("seed %d: edge %d handed to the filter from %d, leaves %d", seed, k, from, source[k])
			}
			return inEdge[k]
		}
	}
	admits := func(id int) bool { return allowed == nil || allowed(id) }
	admitsEdge := func(k int) bool { return edge == nil || edge(source[k], k) }

	// round[id] is the fixpoint round in which id is first reached, -1 if never.
	round := make([]int, n)
	for i := range round {
		round[i] = -1
	}
	for _, s := range starts {
		if admits(s) {
			round[s] = 0
		}
	}
	for r, grew := 0, true; grew; r++ {
		grew = false
		for k, from := range source {
			v := g.EdgeTarget(k)
			if round[from] == r && round[v] < 0 && admits(v) && admitsEdge(k) {
				round[v], grew = r+1, true
			}
		}
	}

	s := g.Search(starts, allowed, edge, -1)
	for id := 0; id < n; id++ {
		if s.Reached(id) != (round[id] >= 0) {
			t.Fatalf("seed %d: state %d reached %v, fixpoint round %d", seed, id, s.Reached(id), round[id])
		}
		p, ok := s.Path(id)
		if ok != s.Reached(id) {
			t.Fatalf("seed %d: state %d: Path ok %v, Reached %v", seed, id, ok, s.Reached(id))
		}
		if !ok {
			continue
		}
		if err := chains(g, source, p, starts, id, admits, admitsEdge); err != nil {
			t.Fatalf("seed %d: path to %d: %v", seed, id, err)
		}
		if len(p.Edges) != round[id] {
			t.Fatalf("seed %d: path to %d has %d edges, a shortest has %d", seed, id, len(p.Edges), round[id])
		}
		if id%7 == 0 {
			q, ok := g.Search(starts, allowed, edge, id).Path(id)
			if !ok || fmt.Sprint(q) != fmt.Sprint(p) {
				t.Fatalf("seed %d: the search stopping at %d found %v (%v), the whole search %v", seed, id, q, ok, p)
			}
		}
	}
}

// chains returns why p is not a path from an admitted start to id through
// admitted states and edges, or nil.
func chains(g *ts.Graph, source []int, p ts.Path, starts []int, id int, admits func(int) bool, admitsEdge func(int) bool) error {
	isStart := false
	for _, s := range starts {
		isStart = isStart || s == p.Start
	}
	if !isStart || !admits(p.Start) {
		return fmt.Errorf("starts at %d, not an admitted start", p.Start)
	}
	at := p.Start
	for i, k := range p.Edges {
		if source[k] != at {
			return fmt.Errorf("edge %d (%d) leaves %d, the path is at %d", i, k, source[k], at)
		}
		if !admitsEdge(k) {
			return fmt.Errorf("edge %d (%d) is filtered out", i, k)
		}
		at = g.EdgeTarget(k)
		if !admits(at) {
			return fmt.Errorf("state %d after edge %d is filtered out", at, i)
		}
	}
	if at != id {
		return fmt.Errorf("ends at %d", at)
	}
	return nil
}
