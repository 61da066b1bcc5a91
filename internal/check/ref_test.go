package check

import (
	"fmt"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// SameAsReference fails t unless SafetyUnder and RefSafetyUnder agree on
// g ⊨ F̄: the same error text, or the same verdict, violation and trace.
func SameAsReference(t *testing.T, g *ts.Graph, f form.Formula, mapping map[string]form.Expr) *SafetyResult {
	t.Helper()
	got, gotErr := SafetyUnder(g, f, mapping)
	want, wantErr := RefSafetyUnder(g, f, mapping)
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: error %v, reference error %v", f, gotErr, wantErr)
	case gotErr != nil:
		return nil
	case got.Holds != want.Holds || got.Violation != want.Violation:
		t.Fatalf("%s: holds=%v %q, reference holds=%v %q", f, got.Holds, got.Violation, want.Holds, want.Violation)
	case traceKeys(got.Trace) != traceKeys(want.Trace):
		t.Fatalf("%s: trace\n%s\nreference trace\n%s", f, got.Trace, want.Trace)
	}
	return got
}

func traceKeys(b state.Behavior) string {
	var out string
	for _, s := range b {
		out += s.Key() + "\n"
	}
	return out
}

// RefSafetyUnder is the substitute-then-evaluate safety check SafetyUnder
// replaced: it substitutes the mapping into f and evaluates F̄ on every
// concrete state and step. It is kept as the reference SafetyUnder must
// agree with wherever Subst does not capture a bound name.
func RefSafetyUnder(g *ts.Graph, f form.Formula, mapping map[string]form.Expr) (result *SafetyResult, err error) {
	if mapping != nil {
		f = f.Subst(mapping)
	}
	m := g.Meter()
	defer obs.FromMeter(m).Span("check:safety")()
	var cur *state.State
	defer engine.Capture(&err, "check.Safety", func() (string, string) {
		if cur != nil {
			return cur.Key(), f.String()
		}
		return "", f.String()
	})
	done := func(r *SafetyResult) (*SafetyResult, error) {
		r.Stats = m.Stats()
		return r, nil
	}
	ob, err := decomposeSafety(f)
	if err != nil {
		return nil, err
	}
	// Every state of one graph binds the same variable set; compiling the
	// obligation's predicates against that layout once keeps the per-state
	// and per-edge evaluation positional and allocation-free.
	var layout []string
	if len(g.States) > 0 {
		layout = g.States[0].Vars()
	}
	// Initial predicates.
	initPreds := make([]form.CompiledPred, len(ob.inits))
	for i, p := range ob.inits {
		initPreds[i] = form.CompilePred(p, layout)
	}
	for _, id := range g.Inits {
		s := g.States[id]
		cur = s
		for i, p := range initPreds {
			ok, err := p(state.Step{From: s})
			if err != nil {
				return nil, fmt.Errorf("initial predicate %s on %s: %w", ob.inits[i], s, err)
			}
			if !ok {
				return done(&SafetyResult{
					Violation: fmt.Sprintf("initial state violates %s", ob.inits[i]),
					Trace:     state.Behavior{s},
				})
			}
		}
	}
	// Invariants.
	invPreds := make([]form.CompiledPred, len(ob.invariants))
	for i, p := range ob.invariants {
		invPreds[i] = form.CompilePred(p, layout)
	}
	for id, s := range g.States {
		if err := m.Tick(); err != nil {
			return nil, err
		}
		cur = s
		for i, p := range invPreds {
			ok, err := p(state.Step{From: s})
			if err != nil {
				return nil, fmt.Errorf("invariant %s on %s: %w", ob.invariants[i], s, err)
			}
			if !ok {
				return done(&SafetyResult{
					Violation: fmt.Sprintf("reachable state violates invariant %s", ob.invariants[i]),
					Trace:     g.Behavior(g.PathTo(id)),
				})
			}
		}
	}
	// Action boxes.
	squares := make([]form.CompiledPred, len(ob.boxes))
	for i, b := range ob.boxes {
		squares[i] = form.CompilePred(form.Square(b.A, b.Sub), layout)
	}
	var res *SafetyResult
	var evalErr error
	// ForEachEdgeStep hands every edge as a GENUINE step of the system: on a
	// symmetry-reduced graph the target id is a canonical representative, but
	// real is the actual post-state of the step, so box evaluation (and any
	// violating trace) never sees a representative-to-representative
	// pseudo-step the system cannot take.
	g.ForEachEdgeStep(func(from, to int, real *state.State) bool {
		if err := m.Tick(); err != nil {
			evalErr = err
			return false
		}
		st := state.Step{From: g.States[from], To: real}
		cur = st.From
		for i, sq := range squares {
			ok, err := sq(st)
			if err != nil {
				evalErr = fmt.Errorf("box %s on step %s: %w", ob.boxes[i], st, err)
				return false
			}
			if !ok {
				path := g.PathTo(from)
				trace := append(g.Behavior(path), real)
				res = &SafetyResult{
					Violation: fmt.Sprintf("reachable step violates %s", ob.boxes[i]),
					Trace:     trace,
				}
				return false
			}
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if res != nil {
		return done(res)
	}
	return done(&SafetyResult{Holds: true})
}
