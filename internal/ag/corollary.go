package ag

import (
	"fmt"
	"sort"

	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// Refinement is an instance of the Corollary of the Composition Theorem
// (§5): for a safety environment assumption E,
//
//	(a) ⊨ E+v ∧ C(M') ⇒ C(M)
//	(b) ⊨ E ∧ M' ⇒ M
//
// imply ⊨ (E ⊳ M') ⇒ (E ⊳ M) — the correctness of refining a system with a
// fixed environment assumption.
type Refinement struct {
	Name string
	// Env is the fixed environment assumption E (safety, no internals).
	Env *spec.Component
	// Low is the lower-level guarantee M'.
	Low *spec.Component
	// High is the higher-level guarantee M.
	High *spec.Component
	// Mapping discharges High's internal variables in terms of the
	// low-level variables.
	Mapping map[string]form.Expr
	// PlusSub overrides the v of hypothesis (a); the default is the tuple
	// of all non-internal variables.
	PlusSub form.Expr
	Domains map[string][]value.Value
	// MaxStates bounds graph construction.
	MaxStates int
	// Workers is the goroutine count used to explore each state graph
	// (0 = GOMAXPROCS); results are identical at any setting.
	Workers int
	// Cache, when non-nil, is consulted before each graph construction and
	// persisted after (see ts.GraphCache).
	Cache ts.GraphCache
	// Resume, when true (with Cache set), continues interrupted graph
	// builds from their saved checkpoints.
	Resume bool
}

func (rf *Refinement) plusSub() form.Expr {
	if rf.PlusSub != nil {
		return rf.PlusSub
	}
	set := make(map[string]bool)
	add := func(c *spec.Component) {
		if c == nil {
			return
		}
		for _, v := range c.Inputs {
			set[v] = true
		}
		for _, v := range c.Outputs {
			set[v] = true
		}
	}
	add(rf.Env)
	add(rf.Low)
	add(rf.High)
	vars := make([]string, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return form.VarTuple(vars...)
}

// Check discharges both hypotheses of the Corollary, without resource
// limits. Use CheckWith to govern the check with a budget or cancellation.
func (rf *Refinement) Check() (*Report, error) {
	return rf.CheckWith(engine.NoLimit())
}

// CheckWith discharges both hypotheses under the given resource meter.
// Exhaustion, cancellation, and contained internal failures yield a Report
// with an Unknown verdict and partial statistics instead of an error.
func (rf *Refinement) CheckWith(m *engine.Meter) (*Report, error) {
	if rf.Env != nil && len(rf.Env.Fairness) > 0 {
		return nil, fmt.Errorf("refinement %s: E must be a safety property", rf.Name)
	}
	if len(rf.High.Internals) > 0 && rf.Mapping == nil {
		return nil, fmt.Errorf("refinement %s: High has internals %v: refinement mapping required",
			rf.Name, rf.High.Internals)
	}
	r := &Report{
		TheoremName: rf.Name + " (Corollary)",
		Valid:       true,
		Conclusion:  "(E -+> M') => (E -+> M)",
	}
	end := obs.SpanFromMeter(m, "corollary:"+rf.Name)
	err := rf.checkBoth(r, m)
	end()
	return finishReport(r, m, err)
}

// checkBoth runs hypotheses (a) and (b), accumulating results into r.
func (rf *Refinement) checkBoth(r *Report, m *engine.Meter) error {
	if err := rf.checkHypA(r, m); err != nil {
		return err
	}
	return rf.checkHypB(r, m)
}

// checkHypA discharges (a) E+v ∧ C(M') ⇒ C(M), via the +v monitor product
// over the graph of C(M') with environment variables unconstrained.
func (rf *Refinement) checkHypA(r *Report, m *engine.Meter) error {
	defer obs.SpanFromMeter(m, "hyp-a")()
	baseSys := &ts.System{
		Name:       rf.Name + "/low-closure",
		Components: []*spec.Component{rf.Low.SafetyOnly()},
		Domains:    rf.Domains,
		MaxStates:  rf.MaxStates,
		Workers:    rf.Workers,
		Cache:      rf.Cache,
		Resume:     rf.Resume,
	}
	baseG, err := baseSys.BuildWith(m)
	if err != nil {
		return fmt.Errorf("refinement %s: building C(M') graph: %w", rf.Name, err)
	}
	r.noteStates(baseG.NumStates())
	resA, err := plusCheck(r, baseG, rf.Env, rf.plusSub(), rf.High, rf.Mapping)
	if err != nil {
		return fmt.Errorf("refinement %s hypothesis (a): %w", rf.Name, err)
	}
	r.add("(a): E+v /\\ C(M') => C(M)", resA.Holds, resA.String())
	return nil
}

// checkHypB discharges (b) E ∧ M' ⇒ M with fairness.
func (rf *Refinement) checkHypB(r *Report, m *engine.Meter) error {
	defer obs.SpanFromMeter(m, "hyp-b")()
	fullSys := &ts.System{
		Name:       rf.Name + "/full",
		Components: []*spec.Component{rf.Low},
		Domains:    rf.Domains,
		MaxStates:  rf.MaxStates,
		Workers:    rf.Workers,
		Cache:      rf.Cache,
		Resume:     rf.Resume,
	}
	if rf.Env != nil {
		fullSys.Components = append([]*spec.Component{rf.Env}, fullSys.Components...)
	}
	fullG, err := fullSys.BuildWith(m)
	if err != nil {
		return fmt.Errorf("refinement %s: building full graph: %w", rf.Name, err)
	}
	r.noteStates(fullG.NumStates())
	resB, err := check.Component(fullG, rf.High, rf.Mapping)
	if err != nil {
		return fmt.Errorf("refinement %s hypothesis (b): %w", rf.Name, err)
	}
	r.add("(b): E /\\ M' => M (safety)", resB.Safety.Holds, resB.Safety.String())
	if resB.Liveness != nil {
		r.add("(b): E /\\ M' => M (liveness)", resB.Liveness.Holds, resB.Liveness.String())
	}
	return nil
}
