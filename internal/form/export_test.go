package form

import "opentla/internal/state"

// IndexedBranches compiles a as EnabledFn does and reports, for each of its
// disjunctive branches in expansion order, whether the branch's first
// residual conjunct has an inverse-image index. It returns nil when the
// expansion is too large to compile.
func (c *Ctx) IndexedBranches(a Expr, layout []string) []bool {
	branches, ok := c.enabledBranches(a, layout)
	if !ok {
		return nil
	}
	out := make([]bool, len(branches))
	for i, b := range branches {
		out[i] = b.index != nil
	}
	return out
}

// CompileRaw returns the closure CompilePred compiles e to, without the
// wrapper's layout guard and interpreter fallback: its errors are the
// compiled path's own, and it must only see steps over layout.
func CompileRaw(e Expr, layout []string) func(st state.Step) (bool, error) {
	return newCompiler(layout).pred(e, false)
}
