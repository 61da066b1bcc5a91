// Package reduce implements symmetry reduction for the explicit-state
// exploration of package ts: canonicalization under permutations of a
// declared set of interchangeable data values.
//
// Symmetry declarations are validated before use, never assumed: they are
// checked structurally against the system (domain closure and a
// literal/shape scan of every formula the group must leave invariant). An
// invalid declaration is an error at the ts.System level and a graceful
// disable (with a flight-recorder note) at the ag.Theorem level.
//
// Reduced graphs store, for every edge, the real successor state alongside
// the canonical target id (see ts.Graph.EdgeReal), so checks always
// evaluate genuine steps of the system — the reduction can hide behaviors
// only if the validated group assumptions are violated, never manufacture
// spurious ones. The permutation that takes a real successor to its
// representative (Canonicalizer.PermOf) turns a path of representatives
// back into a behavior (see ts.Graph.Lift).
package reduce

import (
	"fmt"
	"strings"
)

// Options selects which reductions to apply.
type Options struct {
	// Sym enables symmetry canonicalization.
	Sym bool
}

// Any reports whether a reduction is enabled.
func (o Options) Any() bool { return o.Sym }

// String renders the options in the -reduce flag syntax.
func (o Options) String() string {
	if o.Sym {
		return "sym"
	}
	return "off"
}

// ParseFlag parses a -reduce flag value: "off" (or empty) or "sym".
func ParseFlag(s string) (Options, error) {
	switch strings.TrimSpace(s) {
	case "", "off":
		return Options{}, nil
	case "sym":
		return Options{Sym: true}, nil
	}
	return Options{}, fmt.Errorf("invalid -reduce mode %q: want off|sym", s)
}

// Config carries everything a reduced exploration needs. A nil *Config (or
// one with no enabled Options) means full, unreduced exploration.
type Config struct {
	Options
	// Symmetry declares the permutation group for Options.Sym. Sym with a
	// nil Symmetry is inert.
	Symmetry *Symmetry
	// Sabotage, when non-nil, deliberately breaks the reduction machinery.
	// It exists solely as a fault-injection seam for the mutation tests of
	// internal/faultinject; production paths never set it.
	Sabotage *Sabotage
}

// Active reports whether symmetry canonicalization is requested and the
// declared group is nontrivial.
func (c *Config) Active() bool {
	return c != nil && c.Sym && c.Symmetry != nil && c.Symmetry.nontrivial()
}

// Desc renders the canonical content-addressing description of the
// reduction configuration, for inclusion in graph-cache keys: a reduced
// graph must never collide with the full graph of the same system, nor
// with a graph reduced under a different group. Inactive configs yield ""
// (no desc section, byte-identical keys to pre-reduction builds).
func (c *Config) Desc() string {
	if !c.Active() {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("reduce:\n")
	sb.WriteString("  modes=")
	sb.WriteString(c.Options.String())
	sb.WriteByte('\n')
	sb.WriteString(c.Symmetry.desc())
	if c.Sabotage != nil && c.Sabotage.any() {
		// Sabotaged builds must not poison (or be served from) sound cache
		// entries.
		sb.WriteString("  sabotage=")
		sb.WriteString(c.Sabotage.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Sabotage deliberately breaks reduction soundness, one seam per known
// failure mode. The faultinject mutation catalog flips these one at a time
// and asserts that the reduced-vs-full cross-check detects every one; a
// surviving mutant means the test harness could miss a real bug of the
// same shape.
type Sabotage struct {
	// CollapseValues maps every data value of the symmetry orbit to the
	// first one, merging states that are NOT equivalent (an over-eager
	// canonicalizer losing reachable states).
	CollapseValues bool
	// SkipTupleValues skips relabeling inside tuple values, producing
	// "canonical" states outside the orbit of the input (an inconsistent
	// canonicalizer manufacturing unreachable states).
	SkipTupleValues bool
}

func (s *Sabotage) any() bool {
	return s != nil && (s.CollapseValues || s.SkipTupleValues)
}

// String names the active seams, comma-separated.
func (s *Sabotage) String() string {
	if s == nil {
		return ""
	}
	var parts []string
	if s.CollapseValues {
		parts = append(parts, "collapse-values")
	}
	if s.SkipTupleValues {
		parts = append(parts, "skip-tuple-values")
	}
	return strings.Join(parts, ",")
}
