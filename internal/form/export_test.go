package form

import "opentla/internal/state"

// CompileRaw returns the closure CompilePred compiles e to, without the
// wrapper's layout guard and interpreter fallback: its errors are the
// compiled path's own, and it must only see steps over layout.
func CompileRaw(e Expr, layout []string) func(st state.Step) (bool, error) {
	return newCompiler(layout).pred(e, false)
}
