package value

// ForEachAssignment enumerates every assignment of the named variables to
// values from their domains, invoking f with a reused map (callers must copy
// if they retain it). Enumeration stops early if f returns false.
// ForEachAssignment reports whether enumeration ran to completion. With no
// names it calls f once with an empty map.
func ForEachAssignment(names []string, domains map[string][]Value, f func(map[string]Value) bool) bool {
	asgn := make(map[string]Value, len(names))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(names) {
			return f(asgn)
		}
		dom := domains[names[i]]
		for _, v := range dom {
			asgn[names[i]] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}
