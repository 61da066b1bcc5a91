package ag

import (
	"fmt"

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
//
// Vet records on the instance whether the analysis found errors. Check,
// CheckWith and FirstFailure refuse an instance in that case, and they
// analyze only an instance that was never vetted, so a caller that vets a
// theorem must not change its pairs, conclusion or domains before
// checking it.
func (th *Theorem) Vet() *vet.Result {
	res := analyze(th)
	th.vetted, th.vetErr = true, nil
	if res.HasErrors() {
		th.vetErr = fmt.Errorf("theorem is not in canonical form (%d vet errors; run specvet for the full list): %s",
			res.Errors(), res.Filter(vet.Error)[0])
	}
	return res
}

// analyze is the analysis behind Vet; tests count its calls through it.
var analyze = (*Theorem).analyze

func (th *Theorem) analyze() *vet.Result {
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
