package ts

import (
	"fmt"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// ring returns the state x = 0 and, for each v < n, the resolved update
// setting x to v: the pieces an expander needs to build every state of a
// one-variable ring in a scratch state.
func ring(n int) (*state.State, [][]state.PosUpdate) {
	base := state.FromPairs("x", value.Int(0))
	ups := make([][]state.PosUpdate, n)
	for v := range ups {
		ups[v] = []state.PosUpdate{{Pos: 0, Val: value.Int(int64(v))}}
		base.Resolve(ups[v])
	}
	return base, ups
}

// xOf returns the value of x in s.
func xOf(s *state.State) int {
	x, _ := s.MustGet("x").AsInt()
	return int(x)
}

// ringExpander returns an expander factory over the ring of n states: each
// expander emits x+d mod n for each d of offsets, in order, every one from
// the single scratch state it owns, which it overwrites as soon as emit
// returns.
func ringExpander(n int, offsets []int) func() expandFunc {
	base, ups := ring(n)
	return func() expandFunc {
		scratch := new(state.State)
		return func(s *state.State, emit func(*state.State) error) error {
			for _, d := range offsets {
				base.OverwriteInto(scratch, ups[(xOf(s)+d)%n])
				if err := emit(scratch); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// TestExploreDedupsReusedScratch: an expander that hands every successor
// over in one reused scratch, repeats included, gets one edge per distinct
// successor, at its first occurrence, and a graph whose states are copies
// the scratch never overwrites.
func TestExploreDedupsReusedScratch(t *testing.T) {
	const n = 7
	emitted := []int{1, 0, 1, 3, 0, 1, 3, 3}
	distinct := []int{1, 0, 3} // emitted, first occurrences only
	base, _ := ring(n)
	for _, workers := range []int{1, 4} {
		res, err := explore(exploreParams{
			op:        "test",
			workers:   workers,
			meter:     engine.NoLimit(),
			inits:     []*state.State{base},
			newExpand: ringExpander(n, emitted),
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for _, s := range res.states {
			seen[xOf(s)] = true
		}
		if len(res.states) != n || len(seen) != n {
			t.Fatalf("workers=%d: %d states with %d distinct values, want %d of each", workers, len(res.states), len(seen), n)
		}
		for id, s := range res.states {
			var got, want []int
			for _, to := range res.targets[res.offsets[id]:res.offsets[id+1]] {
				got = append(got, xOf(res.states[to]))
			}
			for _, d := range distinct {
				want = append(want, (xOf(s)+d)%n)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("workers=%d: successors of x=%d are %v, want %v", workers, xOf(s), got, want)
			}
		}
		if res.emitted != int64(n*len(distinct)) {
			t.Errorf("workers=%d: %d successors counted, want %d", workers, res.emitted, n*len(distinct))
		}
	}
}

// TestBuildDedupsRepeatedSuccessors: System.successors emits a successor
// once per valid choice combination producing it, and the build keeps it
// once. The counter below has two actions with one Def, so every x < top
// reaches x+1 twice, besides stuttering to x.
func TestBuildDedupsRepeatedSuccessors(t *testing.T) {
	sys := counterSystem(3)
	c := sys.Components[0]
	c.Actions = append(c.Actions, spec.Action{Name: "IncAgain", Def: c.Actions[0].Def})
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	for id, s := range g.States {
		var got, want []int
		g.ForEachSuccEdge(id, func(_, to int) bool {
			got = append(got, xOf(g.States[to]))
			return true
		})
		want = append(want, xOf(s))
		if xOf(s) < 3 {
			want = append(want, xOf(s)+1)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("successors of x=%d are %v, want %v", xOf(s), got, want)
		}
	}
}

// TestExploreCanonKeepsRealSuccessors: under canonicalization two distinct
// real successors with one representative stay two edges to that
// representative, each with its own real state, while a repeated real
// successor is dropped. The real states are kept, so they must be copies
// of the expander's scratch.
func TestExploreCanonKeepsRealSuccessors(t *testing.T) {
	const n = 4
	base, ups := ring(n)
	// The orbits are {0,1} and {2,3}; each is represented by its even member.
	canon := func(s *state.State) *state.State {
		if x := xOf(s); x%2 == 1 {
			return base.CloneWith(ups[x-1])
		}
		return s
	}
	for _, workers := range []int{1, 4} {
		res, err := explore(exploreParams{
			op:      "test",
			workers: workers,
			meter:   engine.NoLimit(),
			inits:   []*state.State{base},
			// From x: x+2, x+3 (one orbit), then x+2 again.
			newExpand: ringExpander(n, []int{2, 3, 2}),
			canon:     canon,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.states) != 2 {
			t.Fatalf("workers=%d: %d states, want the 2 representatives", workers, len(res.states))
		}
		for id, s := range res.states {
			lo, hi := res.offsets[id], res.offsets[id+1]
			var targets, reals []int
			for k := lo; k < hi; k++ {
				targets = append(targets, xOf(res.states[res.targets[k]]))
				reals = append(reals, xOf(res.edgeStates[k]))
			}
			x := xOf(s)
			wantT := fmt.Sprint([]int{(x + 2) % n, (x + 2) % n})
			wantR := fmt.Sprint([]int{(x + 2) % n, (x + 3) % n})
			if fmt.Sprint(targets) != wantT || fmt.Sprint(reals) != wantR {
				t.Errorf("workers=%d: x=%d has edges to %v with real successors %v, want %s and %s",
					workers, x, targets, reals, wantT, wantR)
			}
		}
		if res.symCollapsed != 2 {
			t.Errorf("workers=%d: %d successors collapsed, want 2", workers, res.symCollapsed)
		}
	}
}

// TestExploreRepeatsCostNoAllocation pins that the explorer allocates only
// for new states: an expander that hands each successor over 20 times
// allocates no more than one that hands it over once.
func TestExploreRepeatsCostNoAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 64
	base, _ := ring(n)
	allocs := func(reps int) float64 {
		var offsets []int
		for d := 1; d <= 3; d++ {
			for r := 0; r < reps; r++ {
				offsets = append(offsets, d)
			}
		}
		p := exploreParams{op: "test", workers: 1, inits: []*state.State{base}, newExpand: ringExpander(n, offsets)}
		return testing.AllocsPerRun(5, func() {
			p.meter = engine.NoLimit()
			if _, err := explore(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	if once, many := allocs(1), allocs(20); many != once {
		t.Errorf("exploring a %d-state ring allocates %v times with each successor emitted once, %v times with each emitted 20 times", n, once, many)
	}
}
