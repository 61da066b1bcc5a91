package ts

import (
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// counterComponent counts x from 0 up to top, then stops.
func counterComponent(top int64) *spec.Component {
	inc := form.And(
		form.Lt(form.Var("x"), form.IntC(top)),
		form.Eq(form.PrimedVar("x"), form.Add(form.Var("x"), form.IntC(1))),
	)
	return &spec.Component{
		Name:    "counter",
		Outputs: []string{"x"},
		Init:    form.Eq(form.Var("x"), form.IntC(0)),
		Actions: []spec.Action{{Name: "Inc", Def: inc}},
	}
}

func counterSystem(top int64) *System {
	return &System{
		Name:       "counter",
		Components: []*spec.Component{counterComponent(top)},
		Domains:    map[string][]value.Value{"x": value.Ints(0, top)},
	}
}

func TestBuildCounterGraph(t *testing.T) {
	g, err := counterSystem(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", g.NumStates())
	}
	if len(g.Inits) != 1 {
		t.Fatalf("inits = %d", len(g.Inits))
	}
	// Every state has a self-loop; non-top states have one more successor.
	for id := 0; id < g.NumStates(); id++ {
		x, _ := g.States[id].MustGet("x").AsInt()
		want := 2
		if x == 3 {
			want = 1
		}
		if g.Degree(id) != want {
			t.Errorf("state x=%d has %d successors, want %d", x, g.Degree(id), want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	// Two components owning the same variable.
	sys := &System{
		Name:       "dup",
		Components: []*spec.Component{counterComponent(1), counterComponent(1)},
		Domains:    map[string][]value.Value{"x": value.Bits()},
	}
	if err := sys.Validate(); err == nil {
		t.Error("shared ownership should be rejected")
	}
	// Missing domain.
	sys2 := counterSystem(1)
	sys2.Domains = map[string][]value.Value{}
	if err := sys2.Validate(); err == nil {
		t.Error("missing domain should be rejected")
	}
}

func TestFreeVarsChangeArbitrarily(t *testing.T) {
	// A component that owns y and reads free variable x.
	copyY := form.And(form.Eq(form.PrimedVar("y"), form.Var("x")), form.Unchanged("x"))
	sys := &System{
		Name: "free-x",
		Components: []*spec.Component{{
			Name:    "copier",
			Inputs:  []string{"x"},
			Outputs: []string{"y"},
			Init:    form.Eq(form.Var("y"), form.IntC(0)),
			Actions: []spec.Action{{Name: "Copy", Def: copyY}},
		}},
		Domains: map[string][]value.Value{"x": value.Bits(), "y": value.Bits()},
	}
	if got := sys.FreeVars(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("FreeVars = %v", got)
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	// x free: both initial values; y then copies: all 4 states reachable.
	if g.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", g.NumStates())
	}
	// From (x=0,y=0): successors include x flipping freely.
	id := g.ID(state.FromPairs("x", value.Int(0), "y", value.Int(0)))
	if id < 0 {
		t.Fatal("state not found")
	}
	foundFlip := false
	g.ForEachSuccEdge(id, func(_, to int) bool {
		if g.States[to].MustGet("x").Equal(value.Int(1)) {
			foundFlip = true
		}
		return true
	})
	if !foundFlip {
		t.Error("free variable x should be able to change on any step")
	}
}

func TestStepConstraintsPruneEdges(t *testing.T) {
	// Two independent counters; a constraint forbids simultaneous change.
	a := counterComponent(1)
	b := counterComponent(1).Rename("counter-y", map[string]string{"x": "y"})
	mk := func(cons []StepConstraint) *Graph {
		sys := &System{
			Name:        "pair",
			Components:  []*spec.Component{a, b},
			Constraints: cons,
			Domains:     map[string][]value.Value{"x": value.Bits(), "y": value.Bits()},
		}
		g, err := sys.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	unconstrained := mk(nil)
	// Without constraints the diagonal step (0,0)→(1,1) exists.
	from := unconstrained.ID(state.FromPairs("x", value.Int(0), "y", value.Int(0)))
	diag := unconstrained.ID(state.FromPairs("x", value.Int(1), "y", value.Int(1)))
	if !hasEdge(unconstrained, from, diag) {
		t.Fatal("expected diagonal edge without constraints")
	}
	constrained := mk([]StepConstraint{{
		Name:   "interleave",
		Action: form.DisjointSteps([]string{"x"}, []string{"y"})[0],
	}})
	from = constrained.ID(state.FromPairs("x", value.Int(0), "y", value.Int(0)))
	diag = constrained.ID(state.FromPairs("x", value.Int(1), "y", value.Int(1)))
	if diag >= 0 && hasEdge(constrained, from, diag) {
		t.Error("Disjoint constraint should prune the diagonal edge")
	}
}

func TestPathTo(t *testing.T) {
	g, err := counterSystem(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	target := g.ID(state.FromPairs("x", value.Int(3)))
	p, ok := g.Search(g.Inits, nil, nil, target).Path(target)
	if !ok {
		t.Fatal("target unreached")
	}
	path := []int{p.Start}
	for _, k := range p.Edges {
		path = append(path, g.EdgeTarget(k))
	}
	if len(path) != 4 {
		t.Fatalf("path length = %d, want 4", len(path))
	}
	for i, id := range path {
		if x, _ := g.States[id].MustGet("x").AsInt(); x != int64(i) {
			t.Errorf("path[%d] has x=%d", i, x)
		}
	}
}

// hasEdge reports whether g has an edge from → to.
func hasEdge(g *Graph, from, to int) bool {
	return !g.ForEachSuccEdge(from, func(_, v int) bool { return v != to })
}

func TestSCCs(t *testing.T) {
	// Counter to 2: each state is its own SCC (self-loops), reverse
	// topological order puts x=2 first.
	g, err := counterSystem(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	sccs := g.SCCs(nil, nil)
	if len(sccs) != 3 {
		t.Fatalf("%d SCCs, want 3", len(sccs))
	}
	if x, _ := g.States[sccs[0][0]].MustGet("x").AsInt(); x != 2 {
		t.Errorf("first SCC (reverse topological) should be x=2, got %d", x)
	}
	// Restricting away a state.
	sccs = g.SCCs(func(id int) bool {
		x, _ := g.States[id].MustGet("x").AsInt()
		return x != 1
	}, nil)
	if len(sccs) != 2 {
		t.Errorf("filtered: %d SCCs, want 2", len(sccs))
	}
}

func TestPlusMonitorFreezesSubscript(t *testing.T) {
	g, err := counterSystem(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	// E: x stays below 2 (dies on the step reaching 2). v = ⟨x⟩: after the
	// death step, x must freeze.
	mon := PlusMonitor("$plus", form.TrueE,
		[]form.Expr{form.Lt(form.PrimedVar("x"), form.IntC(2))},
		form.VarTuple("x"))
	prod, err := Product(g, []*Monitor{mon})
	if err != nil {
		t.Fatal(err)
	}
	// No product edge may leave a dead state while changing x.
	prod.ForEachEdge(func(from, to int) bool {
		s, u := prod.States[from], prod.States[to]
		alive, _ := s.MustGet("$plus").AsBool()
		if !alive && !s.MustGet("x").Equal(u.MustGet("x")) {
			t.Errorf("frozen x changed: %s -> %s", s, u)
		}
		return true
	})
	// x=3 must be unreachable in the product: reaching 3 requires the step
	// 2→3 after E died on 1→2... actually the death step 1→2 may change x,
	// then x freezes at 2, so 3 is unreachable while 2 is reachable dead.
	for _, s := range prod.States {
		if s.MustGet("x").Equal(value.Int(3)) {
			alive, _ := s.MustGet("$plus").AsBool()
			if !alive {
				t.Errorf("x=3 reachable dead: %s", s)
			}
		}
	}
}
