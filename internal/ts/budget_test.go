package ts

import (
	"errors"
	"strings"
	"testing"
	"time"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

func TestBuildWithStateBudget(t *testing.T) {
	m := engine.Budget{MaxStates: 5}.Meter()
	_, err := counterSystem(50).BuildWith(m)
	if err == nil {
		t.Fatal("expected budget exhaustion")
	}
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected *engine.BudgetError, got %T: %v", err, err)
	}
	if !strings.Contains(be.Reason, "state budget 5") {
		t.Errorf("reason = %q", be.Reason)
	}
	if be.Stats.States == 0 {
		t.Error("partial stats should record explored states")
	}
}

func TestBuildWithTransitionBudget(t *testing.T) {
	m := engine.Budget{MaxTransitions: 3}.Meter()
	_, err := counterSystem(50).BuildWith(m)
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected *engine.BudgetError, got %T: %v", err, err)
	}
	if !strings.Contains(be.Reason, "transition budget") {
		t.Errorf("reason = %q", be.Reason)
	}
}

func TestBuildWithRecordsStats(t *testing.T) {
	m := engine.NoLimit()
	g, err := counterSystem(3).BuildWith(m)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.States != g.NumStates() {
		t.Errorf("meter states = %d, graph states = %d", s.States, g.NumStates())
	}
	if s.Transitions != g.NumEdges() {
		t.Errorf("meter transitions = %d, graph edges = %d", s.Transitions, g.NumEdges())
	}
	if g.Meter() != m {
		t.Error("graph should carry the build meter")
	}
}

func TestLegacyMaxStatesBecomesBudgetError(t *testing.T) {
	old := maxGraphStates
	maxGraphStates = 4
	t.Cleanup(func() { maxGraphStates = old })
	_, err := counterSystem(50).Build()
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected *engine.BudgetError, got %T: %v", err, err)
	}
	if !strings.Contains(be.Reason, "graph state limit 4") {
		t.Errorf("reason = %q", be.Reason)
	}
}

func TestOversizedInitialSpaceIsBudgetError(t *testing.T) {
	// 12 variables with 5-value domains: 5^12 ≈ 244M assignments.
	comp := &spec.Component{Name: "wide", Outputs: []string{"a"}}
	sys := &System{Name: "wide", Components: []*spec.Component{comp}, Domains: map[string][]value.Value{}}
	vars := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	comp.Outputs = vars
	for _, v := range vars {
		sys.Domains[v] = value.Ints(0, 4)
	}
	_, err := sys.Build()
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected *engine.BudgetError, got %T: %v", err, err)
	}
	if !strings.Contains(be.Reason, "initial-state space") {
		t.Errorf("reason = %q", be.Reason)
	}
}

// TestPinnedInitPastDomainProductBuilds: a domain product of 5^12 ≈ 244M
// assignments is no obstacle when Init determines all but two variables.
// Init is solved, not enumerated: the build finds the 25 initial states
// without visiting the product.
func TestPinnedInitPastDomainProductBuilds(t *testing.T) {
	vars := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	var pins []form.Expr
	for _, v := range vars[:10] {
		pins = append(pins, form.Eq(form.Var(v), form.IntC(0)))
	}
	comp := &spec.Component{Name: "wide", Outputs: vars, Init: form.And(pins...)}
	sys := &System{Name: "wide", Components: []*spec.Component{comp}, Domains: map[string][]value.Value{}}
	for _, v := range vars {
		sys.Domains[v] = value.Ints(0, 4)
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Inits) != 25 || g.NumStates() != 25 {
		t.Fatalf("%d initial states, %d states; want 25 each", len(g.Inits), g.NumStates())
	}
	if k, l := g.States[g.Inits[1]].MustGet("k"), g.States[g.Inits[1]].MustGet("l"); !k.Equal(value.Int(0)) || !l.Equal(value.Int(1)) {
		t.Errorf("second initial state has k=%s l=%s, want k=0 l=1", k, l)
	}
}

// TestBuildContainsPanicsWithFingerprint: a panic in a user callback — a
// monitor's Step, the one Go callback exploration runs — is contained as an
// *engine.EngineError carrying the key of the state being expanded.
func TestBuildContainsPanicsWithFingerprint(t *testing.T) {
	g, err := counterSystem(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	mon := &Monitor{
		Var:    "$m",
		Domain: value.Bools(),
		Init:   func(*state.State) ([]value.Value, error) { return []value.Value{value.Bool(true)}, nil },
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			if x, _ := st.From.MustGet("x").AsInt(); x == 2 {
				panic("monitor invariant broken")
			}
			return []value.Value{cur}, nil
		},
	}
	_, err = Product(g, []*Monitor{mon})
	if err == nil {
		t.Fatal("expected contained panic")
	}
	var ee *engine.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("expected *engine.EngineError, got %T: %v", err, err)
	}
	if !strings.Contains(ee.PanicVal, "monitor invariant broken") {
		t.Errorf("panic val = %q", ee.PanicVal)
	}
	if !strings.Contains(ee.State, "x=2") {
		t.Errorf("state = %q, want the offending state x=2", ee.State)
	}
}

func TestProductInheritsMeterAndBudget(t *testing.T) {
	m := engine.Budget{MaxStates: 6}.Meter()
	g, err := counterSystem(2).BuildWith(m) // 3 states
	if err != nil {
		t.Fatal(err)
	}
	// A monitor that doubles the state count exceeds the shared budget.
	mon := &Monitor{
		Var:    "$m",
		Domain: value.Bools(),
		Init: func(s *state.State) ([]value.Value, error) {
			return []value.Value{value.True, value.False}, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			return []value.Value{value.True, value.False}, nil
		},
	}
	_, err = Product(g, []*Monitor{mon})
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected *engine.BudgetError from product, got %T: %v", err, err)
	}
}

// TestBudgetStopCountsCommittedTransitions stops a two-worker exploration
// mid-level under both orders of a level's two expansions: a, whose
// successors exhaust the state budget, and b, whose one successor is old.
// A level's transitions count only once the level commits, so both orders
// report the transitions of the committed level 0 alone, whether or not b's
// row finished before the stop.
func TestBudgetStopCountsCommittedTransitions(t *testing.T) {
	base, ups := ring(6)
	for _, bFirst := range []bool{false, true} {
		m := engine.Budget{MaxStates: 4}.Meter()
		bDone := make(chan struct{})
		wait := func(ready func() bool) error {
			for deadline := time.Now().Add(10 * time.Second); !ready(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					return errors.New("expansion order not reached")
				}
			}
			return nil
		}
		expand := func() expandFunc {
			scratch := new(state.State)
			return func(s *state.State, emit func(*state.State) error) error {
				var succs []int
				switch xOf(s) {
				case 0:
					succs = []int{1, 2}
				case 1: // a: 3 and 4 are new, and the fifth state exceeds the budget
					if bFirst {
						<-bDone
						time.Sleep(20 * time.Millisecond) // let b's row finish
					}
					succs = []int{3, 4, 5}
				case 2: // b
					if !bFirst {
						if err := wait(m.Exhausted); err != nil {
							return err
						}
					}
					defer func() {
						if bFirst {
							close(bDone)
						}
					}()
					succs = []int{0}
				}
				for _, x := range succs {
					base.OverwriteInto(scratch, ups[x])
					if err := emit(scratch); err != nil {
						return err
					}
				}
				return nil
			}
		}
		_, err := explore(exploreParams{op: "test", workers: 2, meter: m, inits: []*state.State{base}, newExpand: expand})
		var be *engine.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("b first %v: err = %v, want a state budget stop", bFirst, err)
		}
		if st := m.Stats(); st.States != 5 || st.Transitions != 2 {
			t.Errorf("b first %v: stopped at %d states, %d transitions; want 5 and level 0's 2", bFirst, st.States, st.Transitions)
		}
	}
}
