package ag

import (
	"opentla/internal/engine"
	"opentla/internal/ts"
)

// ClosureLHS returns the closure-LHS system CheckWith builds for hypothesis
// 1 and route A of 2a, with the theorem's reduction resolved as in a check.
func (th *Theorem) ClosureLHS() *ts.System {
	th.rd = th.buildReduce(engine.NoLimit())
	return th.lhsSystem(th.Name+"/closure-lhs", true, true)
}
