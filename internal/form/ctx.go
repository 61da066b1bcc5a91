package form

import (
	"fmt"
	"sort"

	"opentla/internal/state"
	"opentla/internal/value"
)

// Ctx carries the semantic context needed to evaluate temporal formulas:
// the finite domains of the flexible variables (used by Enabled and by
// witness search for ∃ hiding) and resource bounds.
type Ctx struct {
	// Domains maps each flexible variable to its finite domain.
	Domains map[string][]value.Value

	// Unroll is the maximum cycle-unrolling factor used when searching for
	// hidden-variable witnesses on lassos (default 2 if zero).
	Unroll int

	// MaxWitness caps the number of hidden-variable assignments tried per
	// ∃ evaluation (default 200000 if zero).
	MaxWitness int
}

// NewCtx returns a context with the given variable domains and default
// bounds.
func NewCtx(domains map[string][]value.Value) *Ctx {
	return &Ctx{Domains: domains}
}

func (c *Ctx) unroll() int {
	if c.Unroll <= 0 {
		return 2
	}
	return c.Unroll
}

func (c *Ctx) maxWitness() int {
	if c.MaxWitness <= 0 {
		return 200000
	}
	return c.MaxWitness
}

// Domain returns the domain of a variable, or an error if none is declared.
func (c *Ctx) Domain(name string) ([]value.Value, error) {
	d, ok := c.Domains[name]
	if !ok || len(d) == 0 {
		return nil, fmt.Errorf("no domain declared for variable %q", name)
	}
	return d, nil
}

// Enabled reports whether the action A is enabled in state s: whether some
// successor state t (over the declared domains) makes A true of ⟨s, t⟩
// (§2.1). Only variables with primed occurrences in A are varied; all other
// variables keep their values in s, which is sound because A's truth cannot
// depend on them.
//
// Enabled analyses the action's structure before enumerating, in the style
// of TLC's action evaluation: top-level disjunctions are split, primeless
// conjuncts are evaluated as guards, and conjuncts of the form x' = e with
// e primeless determine x's next value directly. Only the remaining primed
// variables are enumerated over their domains, each candidate merged into s
// by name (state.WithAll), so s may bind only some variables.
//
// Enabled is the interpreted reference: checkers evaluate ENABLED through
// EnabledFn, which compiles the same analysis and calls Enabled only as its
// fallback and test oracle.
func (c *Ctx) Enabled(a Expr, s *state.State) (bool, error) {
	return c.enabledConj(FlattenAnd(a, nil), s)
}

func (c *Ctx) enabledConj(conjs []Expr, s *state.State) (bool, error) {
	// Distribute over the first top-level disjunction.
	for i, cj := range conjs {
		or, ok := cj.(OrE)
		if !ok {
			continue
		}
		for _, branch := range or.Xs {
			sub := make([]Expr, 0, len(conjs)+1)
			sub = append(sub, conjs[:i]...)
			sub = FlattenAnd(branch, sub)
			sub = append(sub, conjs[i+1:]...)
			enabled, err := c.enabledConj(sub, s)
			if err != nil {
				return false, err
			}
			if enabled {
				return true, nil
			}
		}
		return false, nil
	}

	// Pure conjunction: guards, determined assignments, and the rest.
	determined := make(map[string]value.Value)
	var rest []Expr
	for _, cj := range conjs {
		if !HasPrimes(cj) {
			ok, err := EvalStateBool(cj, s)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
			continue
		}
		if name, rhs, ok := Assignment(cj); ok {
			v, err := rhs.Eval(state.Step{From: s}, nil)
			if err != nil {
				return false, err
			}
			if prev, dup := determined[name]; dup {
				if !prev.Equal(v) {
					return false, nil // conflicting determinations
				}
				continue
			}
			// The successor must stay inside the universe: a determined
			// value outside the variable's domain disables the action.
			if dom, ok := c.Domains[name]; ok {
				inDomain := false
				for _, dv := range dom {
					if dv.Equal(v) {
						inDomain = true
						break
					}
				}
				if !inDomain {
					return false, nil
				}
			}
			determined[name] = v
			continue
		}
		rest = append(rest, cj)
	}

	// Enumerate the primed variables not yet determined.
	primedSet := make(map[string]bool)
	for _, cj := range conjs {
		for _, v := range PrimedVars(cj) {
			primedSet[v] = true
		}
	}
	var free []string
	for v := range primedSet {
		if _, done := determined[v]; !done {
			free = append(free, v)
		}
	}
	sort.Strings(free)
	for _, v := range free {
		if _, err := c.Domain(v); err != nil {
			return false, fmt.Errorf("Enabled: %w", err)
		}
	}
	enabled := false
	var evalErr error
	value.ForEachAssignment(free, c.Domains, func(asgn map[string]value.Value) bool {
		full := make(map[string]value.Value, len(asgn)+len(determined))
		for k, v := range determined {
			full[k] = v
		}
		for k, v := range asgn {
			full[k] = v
		}
		t := s.WithAll(full)
		st := state.Step{From: s, To: t}
		for _, cj := range rest {
			ok, err := EvalBool(cj, st, nil)
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true // try next assignment
			}
		}
		enabled = true
		return false
	})
	if evalErr != nil {
		return false, evalErr
	}
	return enabled, nil
}
