// Package tstest holds the brute-force oracles that tests hold derived
// successor generation to: per action (BruteUpdates) and per step
// (BruteSuccessors). Only tests import it.
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
// appending owned-variable updates to a form.Updates; form.Ctx.UpdatesFn
// is one.
type Deriver func(def form.Expr, layout, owned []string) (func(*state.State, *form.Updates) error, error)

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
// with BruteUpdates, and returns the first divergence. One form.Updates,
// Reset per state, serves every state, as in successor generation. Missing candidates
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
			var u form.Updates
			for _, s := range g.States {
				u.Reset()
				if err := updates(s, &u); err != nil {
					return fmt.Errorf("%s.%s on %s: %w", c.Name, a.Name, s, err)
				}
				got := make([]string, len(u.Cands))
				for i, c := range u.Cands {
					got[i] = s.CloneWith(c).Key()
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

// BruteSuccessors is the reference semantics of one step of sys from s:
// every assignment t to sys.Vars() over their declared domains such that,
// interpreted, ⟨s, t⟩ satisfies every component's [N]_owned — t gives the
// component's owned variables their values in s, or the step satisfies one
// of its actions' Def — and every step constraint. Variables no component
// owns take every value of their domains. It returns the successor keys,
// sorted.
func BruteSuccessors(sys *ts.System, s *state.State) ([]string, error) {
	var out []string
	var evalErr error
	value.ForEachAssignment(sys.Vars(), sys.Domains, func(a map[string]value.Value) bool {
		st := state.Step{From: s, To: state.New(a)}
		ok, err := bruteStepHolds(sys, st)
		if err != nil {
			evalErr = fmt.Errorf("%s: %w", st, err)
			return false
		}
		if ok {
			out = append(out, st.To.Key())
		}
		return true
	})
	sort.Strings(out)
	return out, evalErr
}

func bruteStepHolds(sys *ts.System, st state.Step) (bool, error) {
	for _, c := range sys.Components {
		if st.Stutters(c.Owned()) {
			continue
		}
		moved := false
		for _, a := range c.Actions {
			ok, err := form.EvalBool(a.Def, st, nil)
			if err != nil {
				return false, fmt.Errorf("%s.%s: %w", c.Name, a.Name, err)
			}
			if ok {
				moved = true
				break
			}
		}
		if !moved {
			return false, nil
		}
	}
	for _, sc := range sys.Constraints {
		ok, err := form.EvalBool(sc.Action, st, nil)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// CheckSuccessors holds sys.Successors to BruteSuccessors on every state of
// sys's graph, and returns the first divergence: a successor listed twice,
// or a different set. A missing successor truncates the graph, so every
// check over it is vacuously optimistic; an extra one adds a step the
// specification forbids.
func CheckSuccessors(sys *ts.System) error {
	g, err := sys.Build()
	if err != nil {
		return err
	}
	for _, s := range g.States {
		succs, err := sys.Successors(s)
		if err != nil {
			return err
		}
		got := make([]string, len(succs))
		for i, t := range succs {
			got[i] = t.Key()
		}
		sort.Strings(got)
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				return fmt.Errorf("%s: successor %s listed twice", s, got[i])
			}
		}
		want, err := BruteSuccessors(sys, s)
		if err != nil {
			return fmt.Errorf("brute force from %s: %w", s, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("successors of %s:\n derived %v\n brute   %v", s, got, want)
		}
	}
	return nil
}
