package reduce

import "opentla/internal/state"

// Relabel is the value-level relabeling Canon memoizes: its miss path and
// the oracle the memo is held to.
func (cz *Canonicalizer) Relabel(s *state.State) *state.State { return cz.relabel(s) }
