package check

import (
	"fmt"
	"strings"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/ts"
)

// SpecResult reports a full (safety + liveness) specification check.
type SpecResult struct {
	Safety   *SafetyResult
	Liveness *LivenessResult
}

// Holds reports whether both parts hold.
func (r *SpecResult) Holds() bool {
	return (r.Safety == nil || r.Safety.Holds) && (r.Liveness == nil || r.Liveness.Holds)
}

// Verdict maps the decided result onto the three-valued scale.
func (r *SpecResult) Verdict() engine.Verdict {
	if r.Holds() {
		return engine.Holds
	}
	return engine.Violated
}

// Stats returns the latest meter snapshot among the parts (the meter is
// cumulative, so the later part subsumes the earlier one).
func (r *SpecResult) Stats() engine.RunStats {
	if r.Liveness != nil {
		return r.Liveness.Stats
	}
	if r.Safety != nil {
		return r.Safety.Stats
	}
	return engine.RunStats{}
}

// String renders the result.
func (r *SpecResult) String() string {
	var sb strings.Builder
	if r.Safety != nil {
		sb.WriteString(r.Safety.String())
		sb.WriteByte('\n')
	}
	if r.Liveness != nil {
		sb.WriteString(r.Liveness.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Component checks that every fair behavior of the graph satisfies the
// target component specification. The target's internal variables are
// discharged with the refinement mapping (abstract internal variable →
// concrete state function), as in §A.4 of the paper; a nil mapping means
// the target's internals are visible concrete variables. The images of the
// graph's states under the mapping are built once, by the safety half, and
// read by both halves.
func Component(g *ts.Graph, target *spec.Component, mapping map[string]form.Expr) (*SpecResult, error) {
	saf, im, err := safetyUnder(g, target.SafetyFormula(), mapping)
	if err != nil {
		return nil, fmt.Errorf("component %s safety: %w", target.Name, err)
	}
	res := &SpecResult{Safety: saf}
	if !saf.Holds {
		return res, nil
	}
	if len(target.Fairness) > 0 {
		live, err := liveness(g, target.FairnessFormula(), mapping, im)
		if err != nil {
			return nil, fmt.Errorf("component %s liveness: %w", target.Name, err)
		}
		res.Liveness = live
	}
	return res, nil
}
