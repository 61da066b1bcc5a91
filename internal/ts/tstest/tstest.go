// Package tstest holds the brute-force oracle that tests hold derived
// successor generation to. Only tests import it.
package tstest

import (
	"fmt"
	"sort"

	"opentla/internal/form"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// Deriver compiles an action definition into a successor generator
// proposing owned-variable updates; form.Ctx.UpdatesFn is one.
type Deriver func(def form.Expr, layout, owned []string) (func(*state.State) ([][]state.PosUpdate, error), error)

// BruteUpdates is the reference semantics of successor derivation: every
// assignment to the owned variables over their declared domains that
// satisfies def, interpreted, when all other variables keep their values in
// s. It returns the successor keys, sorted.
func BruteUpdates(owned []string, domains map[string][]value.Value, def form.Expr, s *state.State) ([]string, error) {
	ups := make([]state.PosUpdate, len(owned))
	for i, v := range owned {
		pos, ok := s.PosOf(v)
		if !ok {
			return nil, fmt.Errorf("owned variable %q unbound in %s", v, s)
		}
		ups[i].Pos = pos
	}
	var out []string
	var evalErr error
	value.ForEachAssignment(owned, domains, func(a map[string]value.Value) bool {
		for i, v := range owned {
			ups[i].Val = a[v]
		}
		to := s.CloneWith(ups)
		ok, err := form.EvalBool(def, state.Step{From: s, To: to}, nil)
		if err != nil {
			evalErr = fmt.Errorf("%s -> %s: %w", s, to, err)
			return false
		}
		if ok {
			out = append(out, to.Key())
		}
		return true
	})
	sort.Strings(out)
	return out, evalErr
}

// CheckUpdates compares, on every state of g and for every action of sys,
// the candidates of the generator derive compiles against the system layout
// with BruteUpdates, and returns the first divergence. Missing candidates
// would silently truncate the graph and make every check over it vacuously
// optimistic; extra or repeated ones would add steps the specification
// forbids.
func CheckUpdates(sys *ts.System, g *ts.Graph, derive Deriver) error {
	layout := sys.Vars()
	for _, c := range sys.Components {
		owned := c.Owned()
		for _, a := range c.Actions {
			updates, err := derive(a.Def, layout, owned)
			if err != nil {
				return fmt.Errorf("%s.%s: %w", c.Name, a.Name, err)
			}
			for _, s := range g.States {
				ups, err := updates(s)
				if err != nil {
					return fmt.Errorf("%s.%s on %s: %w", c.Name, a.Name, s, err)
				}
				got := make([]string, len(ups))
				for i, u := range ups {
					got[i] = s.CloneWith(u).Key()
				}
				sort.Strings(got)
				want, err := BruteUpdates(owned, sys.Domains, a.Def, s)
				if err != nil {
					return fmt.Errorf("%s.%s: brute force: %w", c.Name, a.Name, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					return fmt.Errorf("%s.%s on %s:\n derived %v\n brute   %v", c.Name, a.Name, s, got, want)
				}
			}
		}
	}
	return nil
}

// CheckDerivedUpdates builds sys and holds the generator ts builds graphs
// with, form.Ctx.UpdatesFn, to BruteUpdates on every reachable state.
func CheckDerivedUpdates(sys *ts.System) error {
	g, err := sys.Build()
	if err != nil {
		return err
	}
	return CheckUpdates(sys, g, sys.Ctx().UpdatesFn)
}
