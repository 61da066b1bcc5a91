package check

import (
	"fmt"
	"strings"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// Monitor variable names used by the ⊳ and +v product constructions. They
// are chosen to be invalid TLA identifiers so they cannot collide with
// system variables.
const (
	envAliveVar = "$envAlive"
	sysAliveVar = "$sysAlive"
	plusVar     = "$plusAlive"
)

// AGResult reports a check of an assumption/guarantee property E ⊳ M over
// a graph.
type AGResult struct {
	Holds bool
	// Reason describes the violation when Holds is false.
	Reason string
	// Trace is a finite behavior witnessing a safety violation (M died no
	// later than E), if any.
	Trace state.Behavior
	// Counterexample is a fair lasso witnessing a liveness violation
	// (E held forever but M's fairness failed), if any.
	Counterexample *state.Lasso
}

// String renders the result.
func (r *AGResult) String() string {
	if r.Holds {
		return "E -+> M holds"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "E -+> M violated: %s\n", r.Reason)
	if r.Trace != nil {
		sb.WriteString(r.Trace.String())
	}
	if r.Counterexample != nil {
		sb.WriteString(r.Counterexample.String())
	}
	return sb.String()
}

// WhilePlus checks that every fair behavior of the graph satisfies
// E ⊳ M (§3), where env and sys are the assumption and guarantee as
// canonical components and mapping discharges sys's internal variables.
//
// The check runs two safety monitors (for C(E) and C(M̄)) in product with
// the graph and verifies:
//
//  1. Safety: no reachable product step kills M while E was still alive at
//     the step's source, and no initial state violates M's initial
//     predicate (the n = 0 case of ⊳: M must hold for the first 1 state
//     unconditionally).
//  2. Liveness: within the subgraph where E and M are still alive, every
//     fair cycle satisfies M's fairness obligations (E ⇒ M on behaviors
//     where the safety parts never die).
func WhilePlus(g *ts.Graph, env, sys *spec.Component, mapping map[string]form.Expr) (result *AGResult, err error) {
	m := g.Meter()
	defer obs.FromMeter(m).Span("check:while-plus")()
	var cur *state.State
	defer engine.Capture(&err, "check.WhilePlus", func() (string, string) {
		fp := ""
		if cur != nil {
			fp = cur.Key()
		}
		return fp, fmt.Sprintf("%s -+> %s", env.Name, sys.Name)
	})
	envInit, envSquares := safetyParts(env, nil)
	sysInit, sysSquares := safetyParts(sys, mapping)

	envMon := ts.SafetyMonitor(envAliveVar, envInit, envSquares)
	sysMon := ts.SafetyMonitor(sysAliveVar, sysInit, sysSquares)
	prod, err := ts.Product(g, []*ts.Monitor{envMon, sysMon})
	if err != nil {
		return nil, err
	}

	aliveE := func(s *state.State) bool { b, _ := s.MustGet(envAliveVar).AsBool(); return b }
	aliveM := func(s *state.State) bool { b, _ := s.MustGet(sysAliveVar).AsBool(); return b }

	// n = 0: M must hold for the first state regardless of E.
	for _, id := range prod.Inits {
		s := prod.States[id]
		cur = s
		if !aliveM(s) {
			return &AGResult{
				Reason: "initial state violates the guarantee's initial predicate (n = 0 case of -+>)",
				Trace:  state.Behavior{s},
			}, nil
		}
	}

	// Safety: an edge from an (E alive, M alive) node to an M-dead node is
	// a behavior where M died at step n+1 with E alive through n.
	var vio *AGResult
	var tickErr error
	prod.ForEachEdgeStep(func(from, to int, real *state.State) bool {
		if err := m.Tick(); err != nil {
			tickErr = err
			return false
		}
		s, t := prod.States[from], real
		cur = s
		if aliveE(s) && aliveM(s) && !aliveM(t) {
			path := prod.PathTo(from)
			vio = &AGResult{
				Reason: "guarantee M violated while assumption E still held (M must outlive E by one step)",
				Trace:  append(prod.Behavior(path), t),
			}
			return false
		}
		return true
	})
	if tickErr != nil {
		return nil, tickErr
	}
	if vio != nil {
		return vio, nil
	}

	// Liveness: E ⇒ M on behaviors whose safety parts hold forever. Search
	// for a fair lasso confined to (E alive ∧ M alive) nodes violating one
	// of M's fairness obligations.
	if len(sys.Fairness) > 0 {
		bothAlive := func(id int) bool {
			s := prod.States[id]
			return aliveE(s) && aliveM(s)
		}
		fairness := sys.FairnessFormula()
		if mapping != nil {
			fairness = fairness.Subst(mapping)
		}
		live, err := livenessRestricted(prod, bothAlive, fairness)
		if err != nil {
			return nil, err
		}
		if !live.Holds {
			return &AGResult{
				Reason:         fmt.Sprintf("assumption held forever but guarantee liveness failed: %s", live.Violated),
				Counterexample: live.Counterexample,
			}, nil
		}
	}
	return &AGResult{Holds: true}, nil
}

// safetyParts extracts a component's initial predicate and per-step square
// actions, applying an optional refinement mapping.
func safetyParts(c *spec.Component, mapping map[string]form.Expr) (form.Expr, []form.Expr) {
	init := c.Init
	square := c.SquareExpr()
	if mapping != nil {
		if init != nil {
			init = init.Subst(mapping)
		}
		square = square.Subst(mapping)
	}
	return init, []form.Expr{square}
}

// livenessRestricted checks the liveness target within the subgraph of
// states allowed by restrict, under the system's fairness assumptions.
func livenessRestricted(g *ts.Graph, restrict StateMask, target form.Formula) (*LivenessResult, error) {
	fair, ferr := FairnessConds(g)
	for _, cj := range flattenConjuncts(target) {
		t, ok := cj.(form.FairF)
		if !ok {
			return nil, fmt.Errorf("restricted liveness: only WF/SF targets supported, got %s", cj)
		}
		res, err := checkFairTarget(g, fair, t, restrict, nil, nil)
		if err != nil {
			return nil, err
		}
		if *ferr != nil {
			return nil, *ferr
		}
		if !res.Holds {
			return res, nil
		}
	}
	return &LivenessResult{Holds: true}, nil
}
