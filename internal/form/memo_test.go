package form_test

import (
	"sync"
	"testing"

	"opentla/internal/form"
	"opentla/internal/queue"
	"opentla/internal/state"
	"opentla/internal/value"
)

// TestCompiledMemoConcurrent: eight goroutines evaluate one freshly
// compiled predicate — the disjunction of every action of the Fig. 6 queue
// system — over every step of its graph, each starting at a different
// step, so first misses, table growth and hits race. Every answer equals
// EvalBool's.
func TestCompiledMemoConcurrent(t *testing.T) {
	sys := queue.Config{N: 1, Vals: 3}.SingleSystem()
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	var defs []form.Expr
	for _, c := range sys.Components {
		for _, a := range c.Actions {
			defs = append(defs, a.Def)
		}
	}
	e := form.Or(defs...)
	var steps []state.Step
	for _, s := range g.States {
		steps = append(steps, state.Step{From: s})
	}
	for from, s := range g.States {
		g.ForEachSuccEdge(from, func(k, _ int) bool {
			steps = append(steps, state.Step{From: s, To: g.EdgeReal(k)})
			return true
		})
	}
	type answer struct {
		ok  bool
		err string
	}
	want := make([]answer, len(steps))
	for i, st := range steps {
		ok, err := form.EvalBool(e, st, nil)
		want[i] = answer{ok: ok}
		if err != nil {
			want[i].err = err.Error()
		}
	}
	p := form.CompilePred(e, sys.Vars())
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
				for j := range steps {
					i := (j + off) % len(steps)
					ok, err := p(steps[i])
					got := answer{ok: ok}
					if err != nil {
						got.err = err.Error()
					}
					if got != want[i] {
						errs <- steps[i].From.String()
						return
					}
				}
			}
		}(w * len(steps) / workers)
	}
	close(start)
	wg.Wait()
	close(errs)
	for from := range errs {
		t.Errorf("compiled answer differs from EvalBool on a step from %s", from)
	}
	t.Logf("%d steps", len(steps))
}

// TestCompiledMemoHitDoesNotAllocate: once their memos hold a step, the
// Fig. 9 queue conjuncts q' = Tail(q), q' = q ∘ ⟨i.val⟩ and Len(q) < N
// answer it without allocating, where unmemoized the first two build
// sequences.
func TestCompiledMemoHitDoesNotAllocate(t *testing.T) {
	layout := []string{"i.val", "q"}
	q := form.Var("q")
	from := state.New(map[string]value.Value{"i.val": value.Int(2), "q": value.Tuple(value.Int(1), value.Int(0))})
	for _, tc := range []struct {
		e  form.Expr
		to *state.State
	}{
		{form.Eq(form.PrimedVar("q"), form.Tail(q)), from.With("q", value.Tuple(value.Int(0)))},
		{form.Eq(form.PrimedVar("q"), form.AppendTo(q, form.Var("i.val"))), from.With("q", value.Tuple(value.Int(1), value.Int(0), value.Int(2)))},
		{form.Lt(form.Len(q), form.IntC(2)), nil},
	} {
		p := form.CompilePred(tc.e, layout)
		st := state.Step{From: from, To: tc.to}
		if ok, err := p(st); err != nil || ok != (tc.to != nil) {
			t.Fatalf("%s: %v, %v", tc.e, ok, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = p(st) }); n != 0 {
			t.Errorf("%s: %v allocations per memo hit", tc.e, n)
		}
	}
}
