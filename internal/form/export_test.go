package form

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
