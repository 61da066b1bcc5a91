package ag

import (
	"opentla/internal/spec"
	"opentla/internal/vet"
)

// Vet statically analyzes the theorem instance before any state
// exploration: the composed guarantees (the pairs' Sys components plus
// their step constraints) are checked as one composition — including the
// Disjoint-hypothesis coverage Proposition 4 relies on — and the
// environment assumptions and the conclusion guarantee are checked
// individually. Components appearing in several roles (e.g. the arbiter as
// both a pair's Sys and a client's Env) are analyzed once, by name.
func (th *Theorem) Vet() *vet.Result {
	opt := vet.Options{Domains: th.Domains, RequireDisjoint: true}

	lhs := th.lhsSystem()
	comps := lhs.Components
	res := vet.Composition(th.Name, comps, lhs.Constraints, opt)

	vetted := make(map[string]bool, len(comps))
	for _, c := range comps {
		vetted[c.Name] = true
	}
	single := func(c *spec.Component) {
		if c == nil || vetted[c.Name] {
			return
		}
		vetted[c.Name] = true
		res.Merge(vet.Component(c))
	}
	for _, p := range th.Pairs {
		single(p.Env)
	}
	single(th.Concl.Sys)

	// Interface consistency of each assumption/guarantee pair, and of the
	// conclusion: every wire a guarantee reads must be driven by its
	// assumption (SV121).
	for _, p := range th.Pairs {
		res.Merge(vet.Pair(p.Name, p.Env, p.Sys, opt))
	}
	res.Merge(vet.Pair("conclusion", th.Concl.Env, th.Concl.Sys, opt))
	return res
}
