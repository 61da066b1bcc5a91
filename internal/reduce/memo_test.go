package reduce_test

import (
	"fmt"
	"sync"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/form"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// fig9States returns every state of Fig. 9's unreduced guarantees-only
// graph at N=1 and the given K, then of its +v product, so the states come
// in two layouts, and a maker of canonicalizers for the theorem's symmetry
// group. Each real successor of an unreduced graph is one of its states,
// so the states are all of them.
// The graphs are built once per K and test binary: under -cpu 1,4,8 every
// test runs three times.
func fig9States(t testing.TB, k int) ([]*state.State, func() *reduce.Canonicalizer) {
	t.Helper()
	fig9Cache.Lock()
	defer fig9Cache.Unlock()
	if fig9Cache.states == nil {
		fig9Cache.states = map[int][]*state.State{}
	}
	cfg := queue.Config{N: 1, Vals: k}
	cz := func() *reduce.Canonicalizer {
		return (&reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}).Canonicalizer()
	}
	if out, ok := fig9Cache.states[k]; ok {
		return out, cz
	}
	th := cfg.Fig9Theorem()
	sys := guaranteesOnly(th)
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	env := th.Concl.Env
	prod, err := ts.Product(g, []*ts.Monitor{ts.PlusMonitor("$plusAlive", env.Init, []form.Expr{env.SquareExpr()}, th.Concl.PlusSub)})
	if err != nil {
		t.Fatal(err)
	}
	var out []*state.State
	for _, gr := range []*ts.Graph{g, prod} {
		out = append(out, gr.States...)
		for from := range gr.States {
			gr.ForEachSuccEdge(from, func(k, to int) bool {
				if gr.EdgeReal(k) != gr.States[to] {
					t.Fatalf("a real successor of the unreduced %s graph is not its state", gr.Sys.Name)
				}
				return true
			})
		}
	}
	if g.States[0].Layout() == prod.States[0].Layout() {
		t.Fatal("the product binds the base graph's variables only")
	}
	fig9Cache.states[k] = out
	return out, cz
}

var fig9Cache struct {
	sync.Mutex
	states map[int][]*state.State // by K
}

// guaranteesOnly returns the system ⋀C(M_j) of th with the environment
// variables unconstrained: the base graph of hypothesis 2a.
func guaranteesOnly(th *ag.Theorem) *ts.System {
	sys := &ts.System{Name: "guarantees-only", Domains: th.Domains, Workers: 1}
	for _, p := range th.Pairs {
		if p.Sys != nil {
			sys.Components = append(sys.Components, p.Sys.SafetyOnly())
		}
		sys.Constraints = append(sys.Constraints, p.Constraints...)
	}
	return sys
}

// sameCanon reports how got, Canon's answer on s, differs from want, the
// value-level relabeling of s, or "" if it does not: it must be an equal
// state with the same fingerprint, and s itself exactly when s is already
// canonical.
func sameCanon(s, got, want *state.State) string {
	switch {
	case !got.Equal(want) || got.Fingerprint() != want.Fingerprint():
		return fmt.Sprintf("Canon(%s) = %s, relabeling gives %s", s, got, want)
	case (got == s) != (want == s):
		return fmt.Sprintf("Canon(%s) returned its argument: %v, relabeling did: %v", s, got == s, want == s)
	}
	return ""
}

// TestCanonMemoMatchesRelabel: over every state and real successor of
// Fig. 9's unreduced guarantees-only graph at K=3 and 4, and of its +v
// product, one canonicalizer answers each state twice, a miss or a hit and
// then a hit, and each answer equals the value-level relabeling.
func TestCanonMemoMatchesRelabel(t *testing.T) {
	for _, k := range []int{3, 4} {
		states, mk := fig9States(t, k)
		cz, oracle := mk(), mk()
		bad, canonical := 0, 0
		for _, s := range states {
			want := oracle.Relabel(s)
			if want == s {
				canonical++
			}
			for round := 0; round < 2; round++ {
				if msg := sameCanon(s, cz.Canon(s), want); msg != "" {
					if bad++; bad <= 5 {
						t.Errorf("K=%d round %d: %s", k, round, msg)
					}
				}
			}
		}
		if canonical == 0 || canonical == len(states) {
			t.Errorf("K=%d: %d of %d states canonical; the test needs both kinds", k, canonical, len(states))
		}
		t.Logf("K=%d: %d states, %d canonical", k, len(states), canonical)
	}
}

// TestCanonMemoConcurrent: eight goroutines canonicalize the K=3 states on
// one fresh canonicalizer, each starting at a different state, so first
// misses, insertions of layouts and entries, and hits race. Every answer
// equals the value-level relabeling.
func TestCanonMemoConcurrent(t *testing.T) {
	states, mk := fig9States(t, 3)
	oracle := mk()
	want := make([]*state.State, len(states))
	for i, s := range states {
		want[i] = oracle.Relabel(s)
	}
	cz := mk()
	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			<-start
			for round := 0; round < 2; round++ {
				for j := range states {
					i := (j + off) % len(states)
					if msg := sameCanon(states[i], cz.Canon(states[i]), want[i]); msg != "" {
						errs <- msg
						return
					}
				}
			}
		}(w * len(states) / workers)
	}
	close(start)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestCanonMemoHitAllocations: a memo hit on a canonical state allocates
// nothing, and one on a non-canonical state only the new state and its row.
func TestCanonMemoHitAllocations(t *testing.T) {
	sym := &reduce.Symmetry{Values: value.Ints(0, 2), Vars: []string{"i.val", "o.val", "q"}}
	cz := (&reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: sym}).Canonicalizer()
	canonical := state.New(map[string]value.Value{
		"i.val": value.Int(0), "o.val": value.Int(1), "q": value.Tuple(value.Int(1), value.Int(2)), "sig": value.Int(2),
	})
	other := state.New(map[string]value.Value{
		"i.val": value.Int(2), "o.val": value.Int(0), "q": value.Tuple(value.Int(0), value.Int(1)), "sig": value.Int(2),
	})
	for _, tc := range []struct {
		name   string
		s      *state.State
		allocs float64
	}{
		{"canonical", canonical, 0},
		{"non-canonical", other, 2},
	} {
		want := cz.Relabel(tc.s)
		if (want == tc.s) != (tc.allocs == 0) {
			t.Fatalf("%s: %s relabels to %s", tc.name, tc.s, want)
		}
		cz.Canon(tc.s) // fill the memo
		if n := testing.AllocsPerRun(100, func() { cz.Canon(tc.s) }); n != tc.allocs {
			t.Errorf("%s: %v allocations per memo hit, want %v", tc.name, n, tc.allocs)
		}
	}
}
