package check

import (
	"fmt"
	"strings"

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
	ws, err := SafetyAll(g, []Obligation{{F: target.SafetyFormula(), Mapping: mapping}})
	if err == nil {
		err = ws[0].Err
	}
	if err != nil {
		return nil, fmt.Errorf("component %s safety: %w", target.Name, err)
	}
	res := &SpecResult{Safety: ws[0].Result}
	if res.Safety.Holds && len(target.Fairness) > 0 {
		live, err := ws[0].Liveness(g, target.FairnessFormula())
		if err != nil {
			return nil, fmt.Errorf("component %s liveness: %w", target.Name, err)
		}
		res.Liveness = live
	}
	return res, nil
}
