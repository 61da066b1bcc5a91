package ag

import (
	"opentla/internal/engine"
	"opentla/internal/ts"
	"opentla/internal/vet"
)

// LHSSystem returns the left-hand-side system CheckWith builds for
// hypotheses 1, 2a(i) and 2b, with the theorem's reduction resolved as in
// a check.
func (th *Theorem) LHSSystem() *ts.System {
	th.rd = th.buildReduce(engine.NoLimit())
	return th.lhsSystem()
}

// GuaranteesSystem returns the guarantees-only system CheckWith builds for
// both routes of hypothesis 2a, with the theorem's reduction resolved as in
// a check.
func (th *Theorem) GuaranteesSystem() *ts.System {
	th.rd = th.buildReduce(engine.NoLimit())
	return th.guaranteesSystem()
}

// CountAnalyses runs f and returns how many times it ran the analysis
// behind Vet.
func CountAnalyses(f func()) int {
	orig := analyze
	defer func() { analyze = orig }()
	n := 0
	analyze = func(th *Theorem) *vet.Result {
		n++
		return orig(th)
	}
	f()
	return n
}
