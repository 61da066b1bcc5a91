// Package ag implements the assumption/guarantee reasoning of Abadi &
// Lamport, "Open Systems in TLA" (1994): the Composition Theorem (§5) and
// checkable forms of Propositions 1–4. The refinement Corollary of §5 is
// the Theorem with one pair whose assumption is the conclusion's (see
// queue.Config.CorollaryTheorem): its hypothesis (1) holds because E is a
// safety property, and its (a) and (b) are the Theorem's 2a and 2b.
//
// Each hypothesis of the theorem asserts that a complete system satisfies a
// property (§5), so the driver discharges hypotheses by explicit-state model
// checking over the conjunction of the components' specifications, exactly
// as the paper's proof sketch (Fig. 9) does by hand: Propositions 1 and 2
// remove closures and quantifiers (we check with internal variables visible
// and discharge the conclusion's internals with a refinement mapping), and
// the +v hypothesis is checked both directly (with a +v monitor product)
// and via the paper's route through Propositions 3 and 4.
package ag

import (
	"fmt"
	"sort"
	"strings"

	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// plusVar is the monitor variable recording whether the conclusion's
// environment assumption is still alive in the +v product (invalid as a TLA
// identifier, so it cannot collide with system variables).
const plusVar = "$plusAlive"

// Pair is one device's assumption/guarantee specification E_j ⊳ M_j.
// Exactly one of Sys or Constraints should describe the guarantee:
//
//   - Sys is a canonical component specification;
//   - Constraints is a raw safety guarantee such as the interleaving
//     assumption G = Disjoint(...) — the paper's conditional-implementation
//     device "let M_1 = G and E_1 = true, since true ⊳ G equals G" (§5).
type Pair struct {
	Name string
	// Env is the assumption E_j; nil means TRUE. It must be a safety
	// property (no fairness) with no internal variables, the form the
	// paper prescribes for environment assumptions (§3).
	Env *spec.Component
	// Sys is the guarantee M_j as a canonical component.
	Sys *spec.Component
	// Constraints is a guarantee given as per-step constraints (each must
	// already allow its intended stuttering, e.g. via form.Square).
	Constraints []ts.StepConstraint
}

// Conclusion is the specification E ⊳ M the composition should implement.
type Conclusion struct {
	// Env is the conclusion's environment assumption E (safety, no
	// internals); nil means TRUE.
	Env *spec.Component
	// Sys is the conclusion's guarantee M.
	Sys *spec.Component
	// Mapping is a refinement mapping discharging Sys's internal
	// variables: abstract internal variable → state function over the
	// composition's variables (§A.4). Required if Sys has internals.
	Mapping map[string]form.Expr
	// PlusSub overrides the state function v of the hypothesis C(E)+v.
	// The default is the tuple of all non-internal variables of the
	// composition (e.g. ⟨i, o, z⟩ in Fig. 9).
	PlusSub form.Expr
}

// Theorem is an instance of the Composition Theorem:
// ⋀_j (E_j ⊳ M_j) ⇒ (E ⊳ M).
type Theorem struct {
	Name    string
	Pairs   []Pair
	Concl   Conclusion
	Domains map[string][]value.Value
	// Workers is the goroutine count used to explore each state graph
	// (0 = GOMAXPROCS). The verdict and every counterexample are identical
	// at any setting.
	Workers int
	// Cache, when non-nil, is consulted before each graph construction and
	// persisted after (see ts.GraphCache).
	Cache ts.GraphCache
	// Reduce selects symmetry reduction for the guarantees-only graph and
	// its +v monitor product. The left-hand-side graph that hypotheses 1,
	// 2a(i) and 2b share is never reduced: 2b needs fairness. A symmetry
	// group the system or properties do not respect is disabled with a
	// flight-recorder note rather than erroring: reduction is an
	// optimization, and the verdict is identical either way.
	Reduce reduce.Options
	// Symmetry declares the permutation group for Reduce.Sym.
	Symmetry *reduce.Symmetry

	// rd is the validated reduction configuration for this check run,
	// resolved once by buildReduce before any graph is built.
	rd *reduce.Config
	// vetted records that Vet ran on this instance, and vetErr the
	// canonical-form refusal it found (nil if none).
	vetted bool
	vetErr error
}

// HypothesisResult reports one discharged (or failed) proof obligation.
type HypothesisResult struct {
	Name   string
	Holds  bool
	Detail string
}

// Report collects the outcome of checking all hypotheses.
type Report struct {
	TheoremName string
	Hypotheses  []HypothesisResult
	// Valid is true iff every hypothesis holds, in which case the
	// Composition Theorem yields the Conclusion formula.
	Valid bool
	// Verdict is the three-valued outcome: Holds (all hypotheses
	// discharged), Violated (some hypothesis failed with a counterexample),
	// or Unknown (the check was aborted before deciding).
	Verdict engine.Verdict
	// Unknown gives the reason when Verdict is engine.Unknown (budget
	// exhaustion, cancellation, or a contained internal failure).
	Unknown string
	// Stats snapshots the governing meter when the check finished, partial
	// results included.
	Stats engine.RunStats
	// States records the size of the largest graph explored.
	States int
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Composition Theorem check: %s\n", r.TheoremName)
	for _, h := range r.Hypotheses {
		status := "OK  "
		if !h.Holds {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "  [%s] %s", status, h.Name)
		if h.Detail != "" && !h.Holds {
			fmt.Fprintf(&sb, "\n        %s", strings.ReplaceAll(h.Detail, "\n", "\n        "))
		}
		sb.WriteByte('\n')
	}
	switch {
	case r.Verdict == engine.Unknown:
		fmt.Fprintf(&sb, "UNKNOWN: %s\n  partial progress: %s\n", r.Unknown, r.Stats)
	case r.Valid:
		fmt.Fprintf(&sb, "VALID: /\\_j (Ej -+> Mj) => (E -+> M)  (%d states max)\n", r.States)
	default:
		sb.WriteString("NOT ESTABLISHED\n")
	}
	return sb.String()
}

// finishReport settles the report's verdict from the meter and the error,
// if any, of the check body. Budget exhaustion, cancellation, and contained
// engine failures become an Unknown verdict carrying partial statistics;
// any other error is genuine and propagated.
func finishReport(r *Report, m *engine.Meter, err error) (*Report, error) {
	r.Stats = m.Stats()
	if err != nil {
		if reason, _, ok := engine.AsUnknown(err); ok {
			r.Valid = false
			r.Verdict = engine.Unknown
			r.Unknown = reason
			// Terminal flight-recorder entry: contained engine failures
			// never pass through Meter.fail, so note the reason here.
			m.Note("unknown-verdict", reason)
			return r, nil
		}
		return nil, err
	}
	if r.Valid {
		r.Verdict = engine.Holds
	} else {
		r.Verdict = engine.Violated
	}
	return r, nil
}

func (r *Report) add(name string, holds bool, detail string) {
	r.Hypotheses = append(r.Hypotheses, HypothesisResult{Name: name, Holds: holds, Detail: detail})
	if !holds {
		r.Valid = false
	}
}

// visibleVars returns the non-internal variables of the whole composition,
// sorted: the default subscript of the C(E)+v hypothesis.
func (th *Theorem) visibleVars() []string {
	comps := []*spec.Component{th.Concl.Env, th.Concl.Sys}
	set := make(map[string]bool)
	for _, p := range th.Pairs {
		comps = append(comps, p.Env, p.Sys)
		for _, sc := range p.Constraints {
			for _, v := range form.AllVars(sc.Action) {
				set[v] = true
			}
		}
	}
	for _, c := range comps {
		if c == nil {
			continue
		}
		for _, v := range c.Inputs {
			set[v] = true
		}
		for _, v := range c.Outputs {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (th *Theorem) plusSub() form.Expr {
	if th.Concl.PlusSub != nil {
		return th.Concl.PlusSub
	}
	return form.VarTuple(th.visibleVars()...)
}

// guaranteeComponents returns the Sys components of all pairs and the
// union of all pairs' step constraints.
func (th *Theorem) guaranteeComponents() ([]*spec.Component, []ts.StepConstraint) {
	var comps []*spec.Component
	var cons []ts.StepConstraint
	for _, p := range th.Pairs {
		if p.Sys != nil {
			comps = append(comps, p.Sys)
		}
		cons = append(cons, p.Constraints...)
	}
	return comps, cons
}

// lhsSystem returns the complete system E ∧ ⋀M_j, fairness included. Its
// graph is also the graph of C(E) ∧ ⋀C(M_j): by Proposition 1 fairness
// removes no state and no edge. So hypotheses (1), 2a(i) and (2b) all read
// this one graph. It is never reduced, since 2b's liveness check refuses
// reduced graphs.
func (th *Theorem) lhsSystem() *ts.System {
	comps, cons := th.guaranteeComponents()
	if th.Concl.Env != nil {
		comps = append([]*spec.Component{th.Concl.Env}, comps...)
	}
	return th.system("/full-lhs", comps, cons)
}

// guaranteesSystem returns the system ⋀C(M_j) with the environment
// variables unconstrained, under the check's reduction.
func (th *Theorem) guaranteesSystem() *ts.System {
	comps, cons := th.guaranteeComponents()
	for i, c := range comps {
		comps[i] = c.SafetyOnly()
	}
	sys := th.system("/guarantees-only", comps, cons)
	sys.Reduce = th.rd
	return sys
}

// system returns a system over comps and cons with the theorem's
// exploration settings, named after the theorem.
func (th *Theorem) system(suffix string, comps []*spec.Component, cons []ts.StepConstraint) *ts.System {
	return &ts.System{
		Name:        th.Name + suffix,
		Components:  comps,
		Constraints: cons,
		Domains:     th.Domains,
		Workers:     th.Workers,
		Cache:       th.Cache,
	}
}

// propertyExprs collects every expression that will be evaluated as (part
// of) a property on a reduced graph: the pairs' assumptions, the
// conclusion's assumption and (mapping-substituted) guarantee, the mapping
// state functions themselves, the +v subscript, and Proposition 4's
// Disjoint(e, m). A declared symmetry must leave all of them invariant for
// canonicalization to preserve verdicts.
func (th *Theorem) propertyExprs() []form.Expr {
	var out []form.Expr
	addComp := func(c *spec.Component, mapping map[string]form.Expr) {
		if c == nil {
			return
		}
		add := func(e form.Expr) {
			if e == nil {
				return
			}
			if mapping != nil {
				e = e.Subst(mapping)
			}
			out = append(out, e)
		}
		add(c.Init)
		for _, a := range c.Actions {
			add(a.Def)
		}
	}
	for _, p := range th.Pairs {
		addComp(p.Env, nil)
	}
	addComp(th.Concl.Env, nil)
	addComp(th.Concl.Sys, th.Concl.Mapping)
	for _, e := range th.Concl.Mapping {
		out = append(out, e)
	}
	out = append(out, th.plusSub())
	if eVars, mVars := th.conclusionInterface(); len(eVars) > 0 && len(mVars) > 0 {
		out = append(out, form.DisjointSteps(eVars, mVars)...)
	}
	return out
}

// buildReduce resolves the requested reduction into a validated config, or
// nil when nothing (usable) was requested. Unlike ts.System — where an
// invalid symmetry declaration is a hard error — a theorem check silently
// drops a group that fails validation, noting why: the reduced and full
// checks decide the same question.
func (th *Theorem) buildReduce(m *engine.Meter) *reduce.Config {
	if !th.Reduce.Any() {
		return nil
	}
	sym := th.Symmetry
	disable := func(why string) *reduce.Config {
		m.Note("reduce", fmt.Sprintf("%s: symmetry disabled: %s", th.Name, why))
		return nil
	}
	if sym == nil {
		return disable("no symmetry group declared")
	}
	for _, e := range th.propertyExprs() {
		if err := sym.CheckValueInvariant(e); err != nil {
			return disable(fmt.Sprintf("property %s: %v", e, err))
		}
	}
	// Dry-run the system-level validation on the one reduced system:
	// BuildWith errors on an invalid declaration, and a graceful disable
	// must happen here.
	sys := th.guaranteesSystem()
	steps := make([]reduce.NamedExpr, 0, len(sys.Constraints))
	for _, sc := range sys.Constraints {
		steps = append(steps, reduce.NamedExpr{Name: sc.Name, E: sc.Action})
	}
	if err := sym.Validate(sys.Components, steps, sys.Domains); err != nil {
		return disable(err.Error())
	}
	return &reduce.Config{Options: th.Reduce, Symmetry: sym}
}

// validate checks the structural requirements of the theorem instance.
func (th *Theorem) validate() error {
	for _, p := range th.Pairs {
		if p.Env != nil {
			if len(p.Env.Fairness) > 0 {
				return fmt.Errorf("pair %s: environment assumptions must be safety properties (§3)", p.Name)
			}
			if len(p.Env.Internals) > 0 {
				return fmt.Errorf("pair %s: environment assumptions must not have internal variables", p.Name)
			}
		}
		if p.Sys == nil && len(p.Constraints) == 0 {
			return fmt.Errorf("pair %s: no guarantee (need Sys or Constraints)", p.Name)
		}
	}
	if th.Concl.Sys == nil {
		return fmt.Errorf("conclusion has no guarantee M")
	}
	if th.Concl.Env != nil {
		if len(th.Concl.Env.Fairness) > 0 {
			return fmt.Errorf("conclusion: environment assumption must be a safety property (§3)")
		}
		if len(th.Concl.Env.Internals) > 0 {
			return fmt.Errorf("conclusion: environment assumption must not have internal variables")
		}
	}
	if len(th.Concl.Sys.Internals) > 0 && th.Concl.Mapping == nil {
		return fmt.Errorf("conclusion guarantee %s has internal variables %v: a refinement mapping is required",
			th.Concl.Sys.Name, th.Concl.Sys.Internals)
	}
	// Canonical-form gate: a component that writes unowned variables or
	// breaks its partition would still model-check — to a meaningless
	// verdict — so error-severity analyzer findings refuse the check. An
	// instance the caller already vetted is not analyzed again.
	if !th.vetted {
		th.Vet()
	}
	return th.vetErr
}

// Check discharges the hypotheses of the Composition Theorem:
//
//	(1)  ⊨ C(E) ∧ ⋀_j C(M_j) ⇒ E_i            for each pair i
//	(2a) ⊨ C(E)+v ∧ ⋀_j C(M_j) ⇒ C(M)
//	(2b) ⊨ E ∧ ⋀_j M_j ⇒ M
//
// Hypothesis 2a is checked twice: directly, by running a +v monitor in
// product with the graph of ⋀ C(M_j) (environment variables unconstrained),
// and via the paper's own route — Proposition 3 reduces it to the plain
// implication C(E) ∧ ⋀C(M_j) ⇒ C(M) plus the orthogonality side conditions
// of Proposition 4. Both must agree for the report to be Valid.
//
// Check runs without resource limits; use CheckWith to govern the check
// with a budget or cancellation.
func (th *Theorem) Check() (*Report, error) {
	return th.CheckWith(engine.NoLimit())
}

// CheckWith discharges the hypotheses under the given resource meter. All
// graph construction and checking draws from the shared meter; exhaustion,
// cancellation, and contained internal failures yield a Report with an
// Unknown verdict and partial statistics instead of an error.
func (th *Theorem) CheckWith(m *engine.Meter) (*Report, error) {
	return th.run(m, "", func(r *Report, m *engine.Meter) error {
		return th.checkAll(r, m, false)
	})
}

// FirstFailure is CheckWith for a caller that needs only the verdict and
// the first failing hypothesis: it stops building and checking after the
// first phase of checkAll that records a failure. The report lists a
// subsequence of CheckWith's entries, in the same order and with the same
// outcomes and details, and has the same verdict and first failing entry
// whenever both decide.
func (th *Theorem) FirstFailure(m *engine.Meter) (*Report, error) {
	return th.run(m, "", func(r *Report, m *engine.Meter) error {
		return th.checkAll(r, m, true)
	})
}

// run validates the theorem, then resolves its reduction and runs body
// under m inside the theorem's span, and settles the verdict of the report
// titled th.Name+title with finishReport.
func (th *Theorem) run(m *engine.Meter, title string, body func(*Report, *engine.Meter) error) (*Report, error) {
	if err := th.validate(); err != nil {
		return nil, err
	}
	r := &Report{TheoremName: th.Name + title, Valid: true}
	end := obs.FromMeter(m).Span("theorem:" + th.Name)
	th.rd = th.buildReduce(m)
	err := body(r, m)
	end()
	return finishReport(r, m, err)
}

// checkAll runs the hypothesis checks in three phases, accumulating results
// into r in the order Check documents: the LHS graph (H1, 2a(i), and (2b),
// which is checked first but reported last), route A's side conditions on
// the guarantees-only graph, and route B's +v product.
//
// With firstFailure set it stops after the first phase that records a
// failure, still reporting (2b) last. Every phase's entries come before
// (2b)'s, so a later phase can change neither the verdict nor the first
// failing entry. A failure of (2b) alone stops nothing: a later phase could
// still fail, and it would be reported first.
func (th *Theorem) checkAll(r *Report, m *engine.Meter, firstFailure bool) error {
	h2b, err := th.checkLHS(r, m)
	if err != nil {
		return err
	}
	decided := func() bool { return firstFailure && !r.Valid }
	if !decided() {
		// The graph of ⋀ C(M_j) alone: route A's side conditions and route
		// B's monitor base.
		rG, err := th.guaranteesGraph(r, m)
		if err != nil {
			return err
		}
		// Hypothesis (2a), route A (Propositions 3 + 4): (ii) and (iii).
		if err := th.checkHyp2aViaPropositions(r, rG); err != nil {
			return err
		}
		// Hypothesis (2a), route B (direct +v monitor product).
		if !decided() {
			if err := th.checkHyp2aDirect(r, rG); err != nil {
				return err
			}
		}
	}
	th.addHyp2b(r, h2b)
	return nil
}

// checkLHS builds the graph of the left-hand side (see lhsSystem) and reads
// it three times: hypothesis (1) for each pair, (2b), and 2a(i). 2a(i),
// C(E) ∧ ⋀C(M_j) ⇒ C(M), is the very SafetyUnder check that is (2b)'s
// safety half, so it reuses that result. (2b)'s result is returned for
// checkAll to report last. The graph is dropped on return, before the
// guarantees-only graph is built, so the two are never held at once.
func (th *Theorem) checkLHS(r *Report, m *engine.Meter) (*check.SpecResult, error) {
	g, err := th.buildLHS(r, m)
	if err != nil {
		return nil, err
	}
	if err := th.checkHyp1(r, m, g); err != nil {
		return nil, err
	}
	end := obs.FromMeter(m).Span("H2b")
	h2b, err := check.Component(g, th.Concl.Sys, th.Concl.Mapping)
	end()
	if err != nil {
		return nil, fmt.Errorf("hypothesis 2b: %w", err)
	}
	r.add(hyp2aI, h2b.Safety.Holds, h2b.Safety.String())
	return h2b, nil
}

// hyp2aI names route A's plain closure implication on the LHS graph.
const hyp2aI = "H2a-A(i): C(E) /\\ conj C(Mj) => C(M)"

// buildLHS builds the graph of lhsSystem and notes its size in r.
func (th *Theorem) buildLHS(r *Report, m *engine.Meter) (*ts.Graph, error) {
	g, err := th.lhsSystem().BuildWith(m)
	if err != nil {
		return nil, fmt.Errorf("building LHS graph: %w", err)
	}
	r.noteStates(g.NumStates())
	return g, nil
}

// guaranteesGraph builds the graph of ⋀ C(M_j) with the environment
// variables unconstrained: the side conditions of route A must hold without
// assuming E, and route B's +v monitor supplies E itself.
func (th *Theorem) guaranteesGraph(r *Report, m *engine.Meter) (*ts.Graph, error) {
	g, err := th.guaranteesSystem().BuildWith(m)
	if err != nil {
		return nil, fmt.Errorf("building guarantees-only graph: %w", err)
	}
	r.noteStates(g.NumStates())
	return g, nil
}

func (r *Report) noteStates(n int) {
	if n > r.States {
		r.States = n
	}
}

// checkHyp1 discharges hypothesis (1) for every pair: each assumption is
// implied by the closure of the environment-constrained composition.
func (th *Theorem) checkHyp1(r *Report, m *engine.Meter, lhsG *ts.Graph) error {
	defer obs.FromMeter(m).Span("H1")()
	for _, p := range th.Pairs {
		if p.Env == nil {
			r.add(fmt.Sprintf("H1[%s]: C(E) /\\ conj C(Mj) => TRUE", p.Name), true, "trivial (E_i = TRUE)")
			continue
		}
		res, err := check.Safety(lhsG, p.Env.SafetyFormula())
		if err != nil {
			return fmt.Errorf("hypothesis 1 for %s: %w", p.Name, err)
		}
		r.add(fmt.Sprintf("H1[%s]: C(E) /\\ conj C(Mj) => E_%s", p.Name, p.Name), res.Holds, res.String())
	}
	return nil
}

// CheckHyp2aPropositionsOnly discharges only hypothesis 2a, along the
// paper's Proposition 3+4 route. Exposed for the ablation benchmark
// comparing the two 2a routes.
func (th *Theorem) CheckHyp2aPropositionsOnly() (*Report, error) {
	return th.run(engine.NoLimit(), " (2a via Props 3+4)", func(r *Report, m *engine.Meter) error {
		g, err := th.buildLHS(r, m)
		if err != nil {
			return err
		}
		res, err := check.SafetyUnder(g, th.Concl.Sys.SafetyFormula(), th.Concl.Mapping)
		if err != nil {
			return fmt.Errorf("hypothesis 2a(i): %w", err)
		}
		r.add(hyp2aI, res.Holds, res.String())
		rG, err := th.guaranteesGraph(r, m)
		if err != nil {
			return err
		}
		return th.checkHyp2aViaPropositions(r, rG)
	})
}

// CheckHyp2aDirectOnly discharges only hypothesis 2a, with the direct +v
// monitor product. Exposed for the ablation benchmark.
func (th *Theorem) CheckHyp2aDirectOnly() (*Report, error) {
	return th.run(engine.NoLimit(), " (2a direct)", func(r *Report, m *engine.Meter) error {
		rG, err := th.guaranteesGraph(r, m)
		if err != nil {
			return err
		}
		return th.checkHyp2aDirect(r, rG)
	})
}

// checkHyp2aViaPropositions discharges 2a along the paper's route:
//
//	(i)  ⊨ C(E) ∧ ⋀C(M_j) ⇒ C(M)                       (Fig. 9, step 2.2)
//	(ii) ⋀C(M_j) ⇒ Disjoint(e, m) and the initial-state disjunction of
//	     Proposition 4, giving ⋀C(M_j) ⇒ C(E) ⊥ C(M)   (Fig. 9, step 2.1)
//	(iii) v contains every free variable of C(M)        (Prop. 3 side cond.)
//
// Proposition 3 then yields ⊨ C(E)+v ∧ ⋀C(M_j) ⇒ C(M). Step (i) is checked
// on the LHS graph (see checkLHS); this checks the side conditions (ii) and
// (iii) on the graph rG of ⋀C(M_j) alone (see guaranteesGraph). Disjoint(e,
// m) is discharged without rG when the guarantees' step constraints, or
// those and the frames of their actions, cover (e, m) (see disjointCover);
// the report entry's detail says which.
func (th *Theorem) checkHyp2aViaPropositions(r *Report, rG *ts.Graph) error {
	defer obs.FromMeter(rG.Meter()).Span("H2a-A")()
	m := th.Concl.Sys

	// (ii-a) Disjoint(e, m) where e/m are the conclusion's input/output
	// tuples (Proposition 4's interleaving requirement). Every step of rG
	// satisfies the guarantees' step constraints and each guarantee's
	// [N]_v, so when those cover (e, m) no step needs checking (Fig. 9,
	// step 2.1).
	eVars, mVars := th.conclusionInterface()
	if len(eVars) > 0 && len(mVars) > 0 {
		const name = "H2a-A(ii): conj C(Mj) => Disjoint(e, m)  [Prop 4]"
		if by := th.disjointCover(eVars, mVars); by != "" {
			r.add(name, true, "static: "+by+" cover (e, m)")
		} else {
			dres, err := check.Safety(rG, form.Disjoint(eVars, mVars))
			if err != nil {
				return fmt.Errorf("hypothesis 2a(ii) Disjoint: %w", err)
			}
			r.add(name, dres.Holds, dres.String())
		}
	} else {
		r.add("H2a-A(ii): Disjoint(e, m)  [Prop 4]", true, "trivial (empty interface)")
	}

	// (ii-b) Initial-state disjunction of Proposition 4.
	initOK := true
	initDetail := ""
	var initPreds []form.Expr
	if th.Concl.Env != nil && th.Concl.Env.Init != nil {
		initPreds = append(initPreds, th.Concl.Env.Init)
	}
	if m.Init != nil {
		mi := m.Init
		if th.Concl.Mapping != nil {
			mi = mi.Subst(th.Concl.Mapping)
		}
		initPreds = append(initPreds, mi)
	}
	if len(initPreds) > 0 {
		disjInit := form.Or(initPreds...)
		for _, id := range rG.Inits {
			ok, err := form.EvalStateBool(disjInit, rG.States[id])
			if err != nil {
				return fmt.Errorf("hypothesis 2a(ii) init disjunction: %w", err)
			}
			if !ok {
				initOK = false
				initDetail = fmt.Sprintf("initial state %s satisfies neither Init_E nor Init_M", rG.States[id])
				break
			}
		}
	}
	r.add("H2a-A(ii): Init_E \\/ Init_M at start  [Prop 4]", initOK, initDetail)

	// (iii) Prop 3 side condition: v ⊇ free variables of M's closure.
	vVars := form.AllVars(th.plusSub())
	vSet := make(map[string]bool, len(vVars))
	for _, v := range vVars {
		vSet[v] = true
	}
	var missing []string
	for _, v := range th.conclusionGuaranteeFreeVars() {
		if !vSet[v] {
			missing = append(missing, v)
		}
	}
	detail := ""
	if len(missing) > 0 {
		detail = fmt.Sprintf("missing from v: %v", missing)
	}
	r.add("H2a-A(iii): v contains the free variables of C(M)  [Prop 3]", len(missing) == 0, detail)
	return nil
}

// disjointCover reports what makes every step of the guarantees-only graph
// satisfy Disjoint(e, m), or "" when nothing static does. It tries the
// guarantees' step constraints that form.ParseDisjoint recognizes first,
// then adds the frames of the guarantee components' actions
// (form.FrameSets of each [N]_v, which every step satisfies), and names
// what covered (e, m): "step constraints G0, G1, G2", "frames of DQ[N=1]",
// or both.
func (th *Theorem) disjointCover(eVars, mVars []string) string {
	comps, cons := th.guaranteeComponents()
	var names []string
	var sets [][]map[string]bool
	for _, sc := range cons {
		if s, ok := form.ParseDisjoint(sc.Action); ok {
			names = append(names, sc.Name)
			sets = append(sets, s)
		}
	}
	constraints := ""
	if len(names) > 0 {
		constraints = "step constraints " + strings.Join(names, ", ")
	}
	if form.DisjointCovers(sets, eVars, mVars) {
		return constraints
	}
	var framed []string
	for _, c := range comps {
		framed = append(framed, c.Name)
		sets = append(sets, form.FrameSets(c.SquareExpr()))
	}
	if !form.DisjointCovers(sets, eVars, mVars) {
		return ""
	}
	by := "frames of " + strings.Join(framed, ", ")
	if constraints != "" {
		by = constraints + " and " + by
	}
	return by
}

// conclusionInterface returns the conclusion's environment-output tuple e
// and guarantee-output tuple m.
func (th *Theorem) conclusionInterface() (eVars, mVars []string) {
	if th.Concl.Env != nil {
		eVars = th.Concl.Env.Outputs
	}
	mVars = th.Concl.Sys.Outputs
	return eVars, mVars
}

// conclusionGuaranteeFreeVars returns the free (visible) variables of the
// conclusion guarantee's closure ∃y : C(M) — its inputs and outputs.
func (th *Theorem) conclusionGuaranteeFreeVars() []string {
	m := th.Concl.Sys
	out := make([]string, 0, len(m.Inputs)+len(m.Outputs))
	out = append(out, m.Inputs...)
	out = append(out, m.Outputs...)
	return out
}

// checkHyp2aDirect discharges 2a with a +v monitor on the graph baseG of
// ⋀C(M_j), whose environment variables are unconstrained (see
// guaranteesGraph): the monitor enforces "C(E) held for a prefix, after
// which v froze" (no E means TRUE), and C(M) is checked under the mapping
// on the product.
func (th *Theorem) checkHyp2aDirect(r *Report, baseG *ts.Graph) error {
	defer obs.FromMeter(baseG.Meter()).Span("H2a-B")()
	var envInit form.Expr
	var envSquares []form.Expr
	if env := th.Concl.Env; env != nil {
		envInit = env.Init
		envSquares = []form.Expr{env.SquareExpr()}
	}
	prod, err := ts.Product(baseG, []*ts.Monitor{ts.PlusMonitor(plusVar, envInit, envSquares, th.plusSub())})
	if err != nil {
		return fmt.Errorf("hypothesis 2a (direct): +v monitor product: %w", err)
	}
	r.noteStates(prod.NumStates())
	res, err := check.SafetyUnder(prod, th.Concl.Sys.SafetyFormula(), th.Concl.Mapping)
	if err != nil {
		return fmt.Errorf("hypothesis 2a (direct): %w", err)
	}
	r.add("H2a-B: C(E)+v /\\ conj C(Mj) => C(M)  [direct monitor]", res.Holds, res.String())
	return nil
}

// The names of hypothesis (2b)'s report entries, E ∧ ⋀M_j ⇒ M checked on
// the left-hand-side graph: its safety half and, when the conclusion's
// guarantee has fairness, its liveness half.
const (
	Hyp2bSafety   = "H2b: E /\\ conj Mj => M  (safety)"
	Hyp2bLiveness = "H2b: E /\\ conj Mj => M  (liveness)"
)

// addHyp2b reports ⊨ E ∧ ⋀M_j ⇒ M, checked with fairness on both sides.
func (th *Theorem) addHyp2b(r *Report, res *check.SpecResult) {
	r.add(Hyp2bSafety, res.Safety.Holds, res.Safety.String())
	if res.Liveness != nil {
		r.add(Hyp2bLiveness, res.Liveness.Holds, res.Liveness.String())
	} else if len(th.Concl.Sys.Fairness) > 0 && !res.Safety.Holds {
		r.add(Hyp2bLiveness, false, "skipped: safety part failed")
	}
}
