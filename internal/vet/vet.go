// Package vet statically analyzes canonical-form component specifications
// (spec.Component) and their compositions before any state is explored.
//
// The theorems of Abadi & Lamport, "Open Systems in TLA" only apply to
// specifications in canonical form ∃x : Init ∧ □[N]_v ∧ L with a clean
// input/output/internal partition (§2.2) and, for compositions, the
// interleaving Disjoint hypothesis of Proposition 4 (§2.3). A component
// that violates those side conditions still model-checks — to a verdict
// that means nothing. Package vet is the fast, deterministic lint pass
// that catches such specs first.
//
// Each finding is a Diagnostic with a stable code (SV0xx), a severity
// (error, warn, info), a component/action location, and a fix hint. The
// analyzer is surfaced three ways: the specvet CLI (over the bundled model
// registry), the -vet pre-check phase of agcheck and queueverify, and the
// library entry points Component and Composition used by ag.Theorem.
//
// Diagnostic code catalog (see DESIGN.md §10 for the paper mapping):
//
//	SV001 error  undeclared variable mentioned by Init/action/fairness
//	SV002 error  action constrains the next-state value of an input
//	SV003 error  action constrains a variable owned by another component
//	SV004 error  Init contains primed variables
//	SV010 error  variable declared more than once (broken partition)
//	SV011 error  two components own the same variable
//	SV020 warn*  no Disjoint constraint or action frame separates two
//	             components' outputs
//	             (*info when the composition does not require interleaving)
//	SV021 info   step constraint not recognized as a Disjoint shape
//	SV030 error  fairness subscript contains primed variables
//	SV031 error  fairness subscript mentions undeclared variables
//	SV032 error  fairness action constrains a non-owned variable
//	SV033 warn   fairness subscript contains no owned variable
//	SV034 info   fairness subscript mixes inputs with owned variables
//	SV050 warn   action definition is syntactically unsatisfiable (dead)
//	SV060 info   declared variable never referenced
//	SV061 warn   quantifier binds a name shadowing a declared variable
//
// The SV1xx range is the semantic pass (specvet v2): facts established by
// the abstract interpreter of package absint rather than read off the
// declarations. It runs for compositions with declared domains and also
// attaches the state-space cardinality bound to the Result (see
// DESIGN.md §14):
//
//	SV100 error  variable's reachable value set not provably finite
//	SV101 warn   inferred write disjoint from the declared domain
//	SV111 error  declared Disjoint coverage refuted by inferred write-sets
//	SV120 error  input declared over another component's internal variable
//	SV121 warn   pair: guarantee input not driven by its assumption's outputs
//	SV130 warn   action provably never enabled under inferred domains
//	SV140 warn   state-space bound exceeds the configured budget
package vet

import (
	"fmt"
	"strings"

	"opentla/internal/absint"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// Severity ranks a diagnostic: Info < Warn < Error.
type Severity int

// The three severities.
const (
	Info Severity = iota
	Warn
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"info"`:
		*s = Info
	case `"warn"`:
		*s = Warn
	case `"error"`:
		*s = Error
	default:
		return fmt.Errorf("unknown severity %s", data)
	}
	return nil
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Code is the stable SV0xx identifier of the check.
	Code string `json:"code"`
	// Severity is the finding's rank; only Error fails strict mode.
	Severity Severity `json:"severity"`
	// Component locates the finding; for composition-level findings it is
	// the composition's name.
	Component string `json:"component,omitempty"`
	// Action names the offending action or fairness condition, if any.
	Action  string `json:"action,omitempty"`
	Message string `json:"message"`
	// Hint suggests a fix.
	Hint string `json:"hint,omitempty"`
}

// String renders the diagnostic on one line:
//
//	SV002 error  QM1/Enq: action constrains input ... (fix: ...)
func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %-5s ", d.Code, d.Severity)
	if d.Component != "" {
		sb.WriteString(d.Component)
		if d.Action != "" {
			sb.WriteString("/" + d.Action)
		}
		sb.WriteString(": ")
	}
	sb.WriteString(d.Message)
	if d.Hint != "" {
		sb.WriteString(" (fix: " + d.Hint + ")")
	}
	return sb.String()
}

// Result collects the diagnostics of one analysis run.
type Result struct {
	Diagnostics []Diagnostic
	// Bound is the semantic pass's state-space cardinality upper bound;
	// nil when the pass did not run (no declared domains, or a
	// component-only analysis).
	Bound *absint.Bound
}

func (r *Result) add(d Diagnostic) { r.Diagnostics = append(r.Diagnostics, d) }

// Merge appends the other result's diagnostics. The receiver's bound wins
// when both results carry one (the composition-level analysis is merged
// first and covers the whole system).
func (r *Result) Merge(o *Result) {
	if o != nil {
		r.Diagnostics = append(r.Diagnostics, o.Diagnostics...)
		if r.Bound == nil {
			r.Bound = o.Bound
		}
	}
}

// CheckBudget implements SV140: when the analysis produced a bound and it
// exceeds the given state budget, a warning is appended and reported true.
// Strict callers refuse to run such instances; others proceed with the
// budget's usual truncation semantics. A budget ≤ 0 checks nothing.
func (r *Result) CheckBudget(budget int64) bool {
	if r.Bound == nil || !r.Bound.Exceeds(budget) {
		return false
	}
	r.add(Diagnostic{
		Code: "SV140", Severity: Warn,
		Message: fmt.Sprintf("state-space bound %s exceeds the configured budget of %d states", r.Bound, budget),
		Hint:    "shrink the instance (domains, queue capacity) or raise -max-states",
	})
	return true
}

// Count returns the number of diagnostics with exactly the given severity.
func (r *Result) Count(s Severity) int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// Errors returns the number of error-severity diagnostics.
func (r *Result) Errors() int { return r.Count(Error) }

// Warnings returns the number of warn-severity diagnostics.
func (r *Result) Warnings() int { return r.Count(Warn) }

// Infos returns the number of info-severity diagnostics.
func (r *Result) Infos() int { return r.Count(Info) }

// HasErrors reports whether any diagnostic has error severity.
func (r *Result) HasErrors() bool { return r.Errors() > 0 }

// Filter returns the diagnostics at or above the given severity, in
// reporting order.
func (r *Result) Filter(min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// String renders every diagnostic, one per line.
func (r *Result) String() string {
	var sb strings.Builder
	for _, d := range r.Diagnostics {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Options tunes an analysis run.
type Options struct {
	// Domains are the declared variable domains; they enable the semantic
	// pass (SV1xx) of Composition. nil disables it.
	Domains map[string][]value.Value
	// RequireDisjoint raises missing-Disjoint-coverage (SV020) from info
	// to warn. Set it when the composition's correctness argument relies
	// on the interleaving hypothesis of Proposition 4 (as every
	// Composition Theorem instance does).
	RequireDisjoint bool
}

// Component runs every per-component analysis on c.
func Component(c *spec.Component) *Result {
	res := &Result{}
	checkPartition(res, c)
	checkFreeVars(res, c)
	checkFairness(res, c)
	checkDeadActions(res, c)
	checkVarUsage(res, c)
	return res
}

// Composition analyzes a complete system: every component individually,
// plus the cross-component checks — ownership clashes (SV011), writes into
// another component's variables (SV003), and Disjoint-hypothesis coverage
// (SV020/SV021). name labels composition-level diagnostics; cons are the
// composition's step constraints (the candidate Disjoint conjuncts).
func Composition(name string, comps []*spec.Component, cons []ts.StepConstraint, opt Options) *Result {
	res := &Result{}
	for _, c := range comps {
		res.Merge(Component(c))
	}
	checkOwnership(res, comps)
	checkDisjointCoverage(res, name, comps, cons, opt)
	checkSemantic(res, name, comps, cons, opt)
	return res
}

// stringSet builds a membership set from a name list.
func stringSet(names []string) map[string]bool {
	out := make(map[string]bool, len(names))
	for _, n := range names {
		out[n] = true
	}
	return out
}
