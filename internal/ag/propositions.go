package ag

import (
	"fmt"

	"opentla/internal/check"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// MachineClosureResult reports a machine-closure check (Proposition 1).
type MachineClosureResult struct {
	Closed bool
	// StuckState describes a reachable state with no fair continuation
	// when Closed is false.
	StuckState string
	States     int
}

// MachineClosure verifies the hypothesis under which Proposition 1 equates
// C(Init ∧ □[N]_v ∧ L) with Init ∧ □[N]_v: every finite behavior of the
// safety part must extend to a behavior satisfying the fairness part. On a
// finite graph this holds iff every reachable state of the safety part has
// a continuation into a cycle satisfying every WF/SF condition.
//
// The component's input variables are left unconstrained (free), so the
// check quantifies over all environments, as the proposition requires.
func MachineClosure(c *spec.Component, domains map[string][]value.Value) (*MachineClosureResult, error) {
	sys := &ts.System{
		Name:       c.Name + "/machine-closure",
		Components: []*spec.Component{c},
		Domains:    domains,
	}
	g, err := sys.Build()
	if err != nil {
		return nil, fmt.Errorf("machine closure of %s: %w", c.Name, err)
	}
	conds, condErr := check.FairnessConds(g)
	for id := range g.States {
		w, err := check.FindFairLasso(g, check.LassoQuery{StartIDs: []int{id}, Conds: conds})
		if err != nil {
			return nil, err
		}
		if *condErr != nil {
			return nil, *condErr
		}
		if w == nil {
			return &MachineClosureResult{
				Closed:     false,
				StuckState: g.States[id].String(),
				States:     g.NumStates(),
			}, nil
		}
	}
	return &MachineClosureResult{Closed: true, States: g.NumStates()}, nil
}

// FairnessSubactionOK checks the syntactic hypothesis of Proposition 1:
// each fairness condition's action must imply the next-state action N
// (every ⟨A⟩ step is an N step). It verifies A ⇒ N semantically over all
// assignments of the component's variables drawn from the domains.
func FairnessSubactionOK(c *spec.Component, domains map[string][]value.Value) (bool, error) {
	next := c.Next()
	vars := c.Vars()
	primed := make([]string, 0, len(vars))
	for _, v := range vars {
		primed = append(primed, v)
	}
	for _, fc := range c.Fairness {
		holds, err := actionImplies(fc.Action, next, vars, primed, domains)
		if err != nil {
			return false, err
		}
		if !holds {
			return false, nil
		}
	}
	return true, nil
}
