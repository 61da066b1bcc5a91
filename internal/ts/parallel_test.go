package ts

import (
	"fmt"
	"strings"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/value"
)

// signature renders a graph's complete observable structure — state keys in
// id order, initial ids, and the full adjacency — so two graphs are
// byte-identical iff their signatures match.
func signature(g *Graph) string {
	var sb strings.Builder
	for id, s := range g.States {
		fmt.Fprintf(&sb, "%d:%s\n", id, s.Key())
	}
	fmt.Fprintf(&sb, "inits:%v\n", g.Inits)
	for id := range g.States {
		fmt.Fprintf(&sb, "%d ->", id)
		g.ForEachSucc(id, func(to int) bool {
			fmt.Fprintf(&sb, " %d", to)
			return true
		})
		sb.WriteByte('\n')
	}
	return sb.String()
}

// pairSystem is a two-counter system with free variables disabled; its graph
// is wide enough (multi-state levels) to exercise real worker parallelism.
func pairSystem(top int64) *System {
	a := counterComponent(top)
	b := counterComponent(top).Rename("counter-y", map[string]string{"x": "y"})
	return &System{
		Name:       "pair",
		Components: []*spec.Component{a, b},
		Domains: map[string][]value.Value{
			"x": value.Ints(0, top),
			"y": value.Ints(0, top),
		},
	}
}

// TestParallelBuildDeterministic verifies the tentpole guarantee: the graph
// built with any worker count is identical — same numbering, same inits,
// same adjacency — to the sequential one, across the partitioned parallel
// barrier. Run with -race and -cpu 1,4,8 (CI does).
func TestParallelBuildDeterministic(t *testing.T) {
	for _, mk := range []func() *System{
		func() *System { return counterSystem(6) },
		func() *System { return pairSystem(4) },
	} {
		seq := mk()
		seq.Workers = 1
		gSeq, err := seq.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := signature(gSeq)
		for _, workers := range []int{0, 2, 4, 7, 8, 13} {
			sys := mk()
			sys.Workers = workers
			g, err := sys.Build()
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if got := signature(g); got != want {
				t.Errorf("system %s: graph at workers=%d differs from sequential:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
					sys.Name, workers, want, workers, got)
			}
		}
	}
}

// TestParallelProductDeterministic extends the determinism guarantee to
// monitor products: the product graph over a parallel-built base must be
// identical at every worker count.
func TestParallelProductDeterministic(t *testing.T) {
	mon := func() *Monitor {
		// Tracks whether x has stayed below 3 so far.
		below := form.Lt(form.PrimedVar("x"), form.IntC(3))
		return SafetyMonitor("ok", form.Lt(form.Var("x"), form.IntC(3)),
			[]form.Expr{form.Square(below, form.Var("x"))})
	}
	build := func(workers int) *Graph {
		sys := pairSystem(4)
		sys.Workers = workers
		g, err := sys.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Product(g, []*Monitor{mon()})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := signature(build(1))
	for _, workers := range []int{0, 2, 4, 8} {
		if got := signature(build(workers)); got != want {
			t.Errorf("product at workers=%d differs from sequential", workers)
		}
	}
}

// TestParallelBuildSharesMeter checks that budget enforcement stays exact
// under parallel exploration: the meter's counters equal the graph's sizes,
// and a too-small state budget aborts with a BudgetError from any worker.
func TestParallelBuildSharesMeter(t *testing.T) {
	sys := pairSystem(4)
	sys.Workers = 4
	m := engine.NoLimit()
	g, err := sys.BuildWith(m)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.States != g.NumStates() {
		t.Errorf("meter states = %d, graph states = %d", st.States, g.NumStates())
	}
	if st.Transitions != g.NumEdges() {
		t.Errorf("meter transitions = %d, graph edges = %d", st.Transitions, g.NumEdges())
	}

	tight := pairSystem(4)
	tight.Workers = 4
	_, err = tight.BuildWith(engine.Budget{MaxStates: 5}.Meter())
	var be *engine.BudgetError
	if !asBudgetError(err, &be) {
		t.Fatalf("tight budget: got %v, want *engine.BudgetError", err)
	}
}

func asBudgetError(err error, be **engine.BudgetError) bool {
	b, ok := err.(*engine.BudgetError)
	if ok {
		*be = b
	}
	return ok
}
