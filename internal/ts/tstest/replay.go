package tstest

import (
	"fmt"

	"opentla/internal/form"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// IsBehavior returns an error unless b is a behavior of full's system:
// its first state is an initial state of the unreduced graph full, and
// each consecutive pair of its states is an edge of full.
func IsBehavior(full *ts.Graph, b state.Behavior) error {
	if len(b) == 0 {
		return fmt.Errorf("empty behavior")
	}
	first := full.ID(b[0])
	isInit := false
	for _, id := range full.Inits {
		isInit = isInit || id == first
	}
	if !isInit {
		return fmt.Errorf("state 0 %s is not an initial state", b[0])
	}
	for i := 0; i+1 < len(b); i++ {
		if err := isStep(full, b[i], b[i+1]); err != nil {
			return fmt.Errorf("step %d -> %d: %w", i, i+1, err)
		}
	}
	return nil
}

func isStep(full *ts.Graph, s, t *state.State) error {
	from, to := full.ID(s), full.ID(t)
	if from < 0 || to < 0 || full.ForEachSuccEdge(from, func(_, v int) bool { return v != to }) {
		return fmt.Errorf("%s -> %s is not a step of the system", s, t)
	}
	return nil
}

// IsLasso returns an error unless l is a behavior of full's system: its
// prefix and one round of its cycle form a behavior (see IsBehavior), and
// the cycle's last state steps back to its first.
func IsLasso(full *ts.Graph, l *state.Lasso) error {
	if len(l.Cycle) == 0 {
		return fmt.Errorf("empty cycle")
	}
	if err := IsBehavior(full, append(append(state.Behavior(nil), l.Prefix...), l.Cycle...)); err != nil {
		return err
	}
	if err := isStep(full, l.Cycle[len(l.Cycle)-1], l.Cycle[0]); err != nil {
		return fmt.Errorf("closing the cycle: %w", err)
	}
	return nil
}

// ViolatesLiveness returns an error unless l is a behavior of full's
// system (see IsLasso) on which, under form's lasso semantics, fairness is
// TRUE and target FALSE: a genuine counterexample to fairness ⇒ target.
func ViolatesLiveness(full *ts.Graph, l *state.Lasso, fairness, target form.Formula) error {
	if err := IsLasso(full, l); err != nil {
		return err
	}
	if ok, err := fairness.Eval(full.Ctx, l); err != nil || !ok {
		return fmt.Errorf("fairness %s is %v (error %v) on the lasso", fairness, ok, err)
	}
	if ok, err := target.Eval(full.Ctx, l); err != nil || ok {
		return fmt.Errorf("target %s is %v (error %v) on the lasso", target, ok, err)
	}
	return nil
}

// ViolatesSafety returns an error unless b is a behavior of full's system
// (see IsBehavior) whose extension by stuttering at its last state makes
// the safety formula f FALSE under form's lasso semantics.
func ViolatesSafety(full *ts.Graph, b state.Behavior, f form.Formula) error {
	if err := IsBehavior(full, b); err != nil {
		return err
	}
	l := state.StutterLasso(b[:len(b)-1], b[len(b)-1])
	if ok, err := f.Eval(full.Ctx, l); err != nil || ok {
		return fmt.Errorf("%s is %v (error %v) on the trace", f, ok, err)
	}
	return nil
}
