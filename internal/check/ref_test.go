package check

import (
	"fmt"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// SameAsReference fails t unless SafetyUnder and RefSafetyUnder agree on
// g ⊨ F̄: the same error text, or the same verdict, violation and trace.
func SameAsReference(t *testing.T, g *ts.Graph, f form.Formula, mapping map[string]form.Expr) *SafetyResult {
	t.Helper()
	got, gotErr := SafetyUnder(g, f, mapping)
	want, wantErr := RefSafetyUnder(g, f, mapping)
	return sameSafety(t, f, got, gotErr, want, wantErr)
}

// SameWalkAsReference fails t unless one SafetyAll walk over g agrees with
// RefSafetyUnder on every obligation, as SameAsReference does, and returns
// the walked outcomes.
func SameWalkAsReference(t *testing.T, g *ts.Graph, obls []Obligation) []*Walked {
	t.Helper()
	ws, err := SafetyAll(g, obls)
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	for i, o := range obls {
		want, wantErr := RefSafetyUnder(g, o.F, o.Mapping)
		sameSafety(t, o.F, ws[i].Result, ws[i].Err, want, wantErr)
	}
	return ws
}

func sameSafety(t *testing.T, f form.Formula, got *SafetyResult, gotErr error, want *SafetyResult, wantErr error) *SafetyResult {
	t.Helper()
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

// SameLivenessAsReference fails t unless Liveness agrees with the
// substituting check it replaced on g ⊨ F̄: Liveness of F̄ itself, which
// reads no images. It compares error text, or verdict, violated conjunct
// and counterexample.
func SameLivenessAsReference(t *testing.T, g *ts.Graph, f form.Formula, mapping map[string]form.Expr) *LivenessResult {
	t.Helper()
	got, gotErr := Liveness(g, f, mapping)
	want, wantErr := Liveness(g, f.Subst(mapping), nil)
	return sameLiveness(t, f, got, gotErr, want, wantErr)
}

func sameLiveness(t *testing.T, f form.Formula, got *LivenessResult, gotErr error, want *LivenessResult, wantErr error) *LivenessResult {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: error %v, reference error %v", f, gotErr, wantErr)
	case gotErr != nil:
		return nil
	case got.Holds != want.Holds || got.Violated != want.Violated:
		t.Fatalf("%s: holds=%v %q, reference holds=%v %q", f, got.Holds, got.Violated, want.Holds, want.Violated)
	case got.String() != want.String():
		t.Fatalf("%s: result\n%s\nreference result\n%s", f, got, want)
	}
	return got
}

// SameComponentAsReference fails t unless Component, whose halves share
// one set of images, agrees with RefSafetyUnder and the substituting
// liveness check on g ⊨ target under mapping.
func SameComponentAsReference(t *testing.T, g *ts.Graph, target *spec.Component, mapping map[string]form.Expr) *SpecResult {
	t.Helper()
	got, err := Component(g, target, mapping)
	if err != nil {
		t.Fatalf("component %s: %v", target.Name, err)
	}
	saf, err := RefSafetyUnder(g, target.SafetyFormula(), mapping)
	if err != nil {
		t.Fatalf("component %s: reference safety: %v", target.Name, err)
	}
	if got.Safety.String() != saf.String() {
		t.Fatalf("component %s: safety\n%s\nreference safety\n%s", target.Name, got.Safety, saf)
	}
	if !saf.Holds || len(target.Fairness) == 0 {
		if got.Liveness != nil {
			t.Fatalf("component %s: liveness checked after %v", target.Name, saf)
		}
		return got
	}
	f := target.FairnessFormula()
	live, err := Liveness(g, f.Subst(mapping), nil)
	sameLiveness(t, f, got.Liveness, nil, live, err)
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
	initPreds := make([]form.CompiledPred, len(ob.preds[initPhase]))
	for i, p := range ob.preds[initPhase] {
		initPreds[i] = form.CompilePred(p, layout)
	}
	for _, id := range g.Inits {
		s := g.States[id]
		cur = s
		for i, p := range initPreds {
			ok, err := p(state.Step{From: s})
			if err != nil {
				return nil, fmt.Errorf("initial predicate %s on %s: %w", ob.names[initPhase][i], s, err)
			}
			if !ok {
				return done(&SafetyResult{
					Violation: fmt.Sprintf("initial state violates %s", ob.names[initPhase][i]),
					Trace:     state.Behavior{s},
				})
			}
		}
	}
	// Invariants.
	invPreds := make([]form.CompiledPred, len(ob.preds[invPhase]))
	for i, p := range ob.preds[invPhase] {
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
				return nil, fmt.Errorf("invariant %s on %s: %w", ob.names[invPhase][i], s, err)
			}
			if !ok {
				return done(&SafetyResult{
					Violation: fmt.Sprintf("reachable state violates invariant %s", ob.names[invPhase][i]),
					Trace:     g.Behavior(g.PathTo(id)),
				})
			}
		}
	}
	// Action boxes.
	squares := make([]form.CompiledPred, len(ob.preds[boxPhase]))
	for i, sq := range ob.preds[boxPhase] {
		squares[i] = form.CompilePred(sq, layout)
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
				evalErr = fmt.Errorf("box %s on step %s: %w", ob.names[boxPhase][i], st, err)
				return false
			}
			if !ok {
				path := g.PathTo(from)
				trace := append(g.Behavior(path), real)
				res = &SafetyResult{
					Violation: fmt.Sprintf("reachable step violates %s", ob.names[boxPhase][i]),
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
