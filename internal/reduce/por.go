package reduce

import (
	"fmt"
	"sort"
	"strings"

	"opentla/internal/form"
	"opentla/internal/spec"
)

// PORPlan is the static side of ample-set partial-order reduction: which
// components are safe candidates for single-component (ample) expansion.
// The dynamic side — nonemptiness (C0) and the cycle proviso (C3) — is
// checked per state by the exploration in ts.
//
// A component j is ample-eligible when its steps are provably independent
// of, and invisible to, everything else:
//
//   - writes(j), the union of primed variables over j's action definitions,
//     is nonempty and contained in j's owned (output + internal) variables;
//   - no other component reads or writes any variable j writes, and j reads
//     no variable any other component writes (C1: independence — a pure-j
//     step commutes with every step of every other component);
//   - j touches no free environment variable (the environment may read or
//     write anything, so free-variable contact breaks independence);
//   - j writes no visible variable (C2: ample steps are stutter steps with
//     respect to the checked properties);
//   - every Disjoint-shaped step constraint has at most one minimal frozen
//     set intersecting writes(j), so a pure-j step can always satisfy the
//     constraint by leaving the other sets frozen.
//
// Eligibility is per-component, not per-state: the conditions above are all
// static. In return the ample set at a state is simply the pure-j successor
// set of the first eligible component that has one, which keeps the
// per-state overhead near zero.
type PORPlan struct {
	eligible []bool
	names    []string
}

// Eligible reports whether component j may serve as an ample candidate.
func (p *PORPlan) Eligible(j int) bool {
	return p != nil && j < len(p.eligible) && p.eligible[j]
}

// EligibleNames lists the eligible components, for diagnostics.
func (p *PORPlan) EligibleNames() []string {
	if p == nil {
		return nil
	}
	return append([]string(nil), p.names...)
}

// NewPORPlan analyzes the system statically and returns the plan, or nil
// with a human-readable reason when POR cannot apply (non-Disjoint
// constraints, or no component qualifies). The sabotage seams weaken
// individual conditions for fault-injection tests.
func NewPORPlan(comps []*spec.Component, constraints []NamedExpr, free, visible []string, sab *Sabotage) (*PORPlan, string) {
	if len(comps) < 2 {
		return nil, "fewer than two components; interleaving reduction is vacuous"
	}
	// Every step constraint must be understood: an opaque constraint could
	// forbid exactly the pure-component steps the ample set consists of
	// while permitting joint steps, which the reduction would then lose.
	// (Pure-j candidates are additionally validated dynamically against all
	// constraints, so this gate is about completeness, not soundness — but
	// a constraint we cannot read also defeats the minimal-set analysis
	// below, so POR is disabled outright.)
	var minimalSets [][]map[string]bool
	for _, c := range constraints {
		if c.E == nil {
			continue
		}
		sets, ok := ParseDisjoint(c.E)
		if !ok {
			return nil, fmt.Sprintf("step constraint %s is not Disjoint-shaped; cannot derive independence", c.Name)
		}
		minimalSets = append(minimalSets, pruneSupersets(sets))
	}

	freeSet := toSet(free)
	visSet := toSet(visible)
	// Free variables change arbitrarily on every step — an implicit
	// environment component that ample expansion postpones (pure-component
	// steps freeze the free variables). Postponing is only sound for
	// invisible changes, so a visible free variable rules out POR entirely.
	if sab == nil || !sab.IgnoreVisibility {
		if intersects(freeSet, visSet) {
			return nil, "a free environment variable is visible to the checked properties"
		}
	}
	writes := make([]map[string]bool, len(comps))
	vars := make([]map[string]bool, len(comps))
	for j, c := range comps {
		w := make(map[string]bool)
		v := toSet(c.Vars())
		for _, a := range c.Actions {
			for _, n := range form.PrimedVars(a.Def) {
				w[n] = true
			}
			for _, n := range form.AllVars(a.Def) {
				v[n] = true
			}
		}
		if c.Init != nil {
			for _, n := range form.AllVars(c.Init) {
				v[n] = true
			}
		}
		for _, f := range c.Fairness {
			if f.Action != nil {
				for _, n := range form.AllVars(f.Action) {
					v[n] = true
				}
			}
			if f.Sub != nil {
				for _, n := range form.AllVars(f.Sub) {
					v[n] = true
				}
			}
		}
		writes[j], vars[j] = w, v
	}

	plan := &PORPlan{eligible: make([]bool, len(comps))}
	for j, c := range comps {
		if len(writes[j]) == 0 {
			continue
		}
		if !subsetOf(writes[j], toSet(c.Owned())) {
			continue
		}
		if intersects(vars[j], freeSet) {
			continue
		}
		if sab == nil || !sab.IgnoreVisibility {
			if intersects(writes[j], visSet) {
				continue
			}
		}
		if sab == nil || !sab.IgnoreDependence {
			dependent := false
			for k := range comps {
				if k == j {
					continue
				}
				if intersects(writes[j], vars[k]) || intersects(vars[j], writes[k]) {
					dependent = true
					break
				}
			}
			if dependent {
				continue
			}
		}
		if !constraintsAllowPure(writes[j], minimalSets) {
			continue
		}
		plan.eligible[j] = true
		plan.names = append(plan.names, c.Name)
	}
	if len(plan.names) == 0 {
		return nil, "no component satisfies the ample-eligibility conditions"
	}
	sort.Strings(plan.names)
	return plan, ""
}

// constraintsAllowPure checks that for every constraint, at most one of its
// minimal frozen sets intersects w: a pure step writing only w can then
// satisfy the constraint via a disjunct freezing the untouched sets.
func constraintsAllowPure(w map[string]bool, minimalSets [][]map[string]bool) bool {
	for _, sets := range minimalSets {
		hit := 0
		for _, s := range sets {
			if intersects(w, s) {
				hit++
			}
		}
		if hit > 1 {
			return false
		}
	}
	return true
}

// pruneSupersets drops frozen sets that strictly contain another set:
// DisjointSteps emits, per pair, the two single-owner sets plus their union
// (the both-stutter disjunct); only the minimal sets matter for the
// intersection count.
func pruneSupersets(sets []map[string]bool) []map[string]bool {
	var out []map[string]bool
	for i, s := range sets {
		minimal := true
		for k, t := range sets {
			if k == i || len(t) >= len(s) {
				continue
			}
			if subsetOf(t, s) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, s)
		}
	}
	return out
}

func toSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func subsetOf(a, b map[string]bool) bool {
	for n := range a {
		if !b[n] {
			return false
		}
	}
	return true
}

func intersects(a, b map[string]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for n := range a {
		if b[n] {
			return true
		}
	}
	return false
}

// DescribePlan renders a one-line summary for flight-recorder notes.
func DescribePlan(p *PORPlan) string {
	if p == nil {
		return "por: inactive"
	}
	return "por: ample-eligible components [" + strings.Join(p.names, ",") + "]"
}
