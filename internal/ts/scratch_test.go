package ts_test

import (
	"fmt"
	"slices"
	"testing"

	"opentla/internal/form"
	"opentla/internal/models"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// emitted returns the keys of the states expand hands to emit from s, in
// order, repeats included.
func emitted(t *testing.T, expand ts.Expander, s *state.State) []string {
	t.Helper()
	var out []string
	if err := expand(s, func(u *state.State) error {
		out = append(out, u.Key())
		return nil
	}); err != nil {
		t.Fatalf("expanding %s: %v", s, err)
	}
	return out
}

// TestExpandScratchReuse holds a worker's expander, whose scratch outlives
// every state it expands, to expanders over fresh scratch: one warm
// expander walks every reachable state of every registry model and example
// and of Fig. 9's guarantees-only system, at K=2, unreduced and under
// symmetry, in BFS order and then in reverse, and must emit for each state
// exactly the sequence a fresh expander emits, repeats and order included.
// A buffer a call forgets to truncate or clear (the passed combinations,
// the choice lists, the chosen actions) carries one state's candidates or
// verdicts into the next state's expansion.
func TestExpandScratchReuse(t *testing.T) {
	type target struct {
		name string
		sys  func() *ts.System
		sym  *reduce.Symmetry
	}
	var targets []target
	for _, m := range append(models.All(), models.Examples()...) {
		targets = append(targets, target{m.Name, m.System, m.Symmetry})
	}
	cfg := queue.Config{N: 1, Vals: 2}
	fig9 := func() *ts.System { return guaranteesOnly(cfg.Fig9Theorem()) }
	targets = append(targets, target{"fig9-guarantees-only", fig9, cfg.DoubleSymmetry()})
	for _, tg := range targets {
		for _, sym := range []bool{false, true} {
			if sym && tg.sym == nil {
				continue
			}
			// A scratch that keeps stale choices can grow without bound, so
			// the first divergence ends the test.
			ok := t.Run(fmt.Sprintf("%s/sym=%v", tg.name, sym), func(t *testing.T) {
				sys := tg.sys()
				if sym {
					sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: tg.sym}
				}
				g, err := sys.Build()
				if err != nil {
					t.Fatal(err)
				}
				newExpand, err := ts.Expanders(sys)
				if err != nil {
					t.Fatal(err)
				}
				reversed := slices.Clone(g.States)
				slices.Reverse(reversed)
				order := append(slices.Clone(g.States), reversed...)
				warm := newExpand()
				for i, s := range order {
					got, want := emitted(t, warm, s), emitted(t, newExpand(), s)
					if !slices.Equal(got, want) {
						t.Fatalf("expansion %d, of %s, on a warm scratch emits\n %v\nbut on a fresh one\n %v", i, s, got, want)
					}
				}
			})
			if !ok {
				return
			}
		}
	}
}

// TestWarmExpandAllocatesNothing pins that successor generation and the
// monitor product's expansion allocate nothing of their own once a
// worker's scratch is warm: re-expanding every state of Fig. 9's K=3
// guarantees-only graph, and of its +v product, with an emit that keeps
// nothing, allocates 0 times.
func TestWarmExpandAllocatesNothing(t *testing.T) {
	if ts.RaceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	th := queue.Config{N: 1, Vals: 3}.Fig9Theorem()
	sys := guaranteesOnly(th)
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	env := th.Concl.Env
	mons := []*ts.Monitor{ts.PlusMonitor("$plusAlive", env.Init, []form.Expr{env.SquareExpr()}, th.Concl.PlusSub)}
	p, err := ts.Product(g, mons)
	if err != nil {
		t.Fatal(err)
	}
	newSucc, err := ts.Expanders(sys)
	if err != nil {
		t.Fatal(err)
	}
	newProd, err := ts.ProductExpanders(g, mons)
	if err != nil {
		t.Fatal(err)
	}
	keep := func(*state.State) error { return nil }
	for _, tc := range []struct {
		name   string
		expand ts.Expander
		states []*state.State
	}{
		{"guarantees-only", newSucc(), g.States},
		{"+v product", newProd(), p.States},
	} {
		t.Run(tc.name, func(t *testing.T) {
			expandAll := func() {
				for _, s := range tc.states {
					if err := tc.expand(s, keep); err != nil {
						t.Fatal(err)
					}
				}
			}
			expandAll() // warm the scratch
			if n := testing.AllocsPerRun(2, expandAll); n != 0 {
				t.Errorf("re-expanding %d states on a warm scratch allocates %v times, want 0", len(tc.states), n)
			}
		})
	}
}
