package ag

import (
	"fmt"
	"slices"

	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/ts"
)

// graphID names one of the graphs a theorem check builds, in build order:
// the LHS graph (see lhsSystem), the guarantees-only graph (see
// guaranteesSystem) and its +v monitor product.
type graphID int

const (
	lhsGraph graphID = iota
	guaranteesGraph
	productGraph
	numGraphs
)

// graphSpans names each graph's spans: for its static and safety
// obligations, and for its liveness ones ("" for none).
var graphSpans = [numGraphs][2]string{{"H1", "H2b"}, {"H2a-A", ""}, {"H2a-B", ""}}

// kind says how an obligation is decided.
type kind int

const (
	static   kind = iota // its result is known from the theorem alone
	safety               // by its graph's one safety walk
	liveness             // after the walk, on its safety half's images
)

// An obligation is one entry of a theorem report: the Fig. 9 step it
// discharges, the graph it is read on, and how it is decided.
type obligation struct {
	name  string
	step  string // Fig. 9: "1", "2.1", "2.2", "2" (Prop. 3; route B), "3"
	graph graphID
	kind  kind
	// walk is the safety check deciding a safety obligation, or whose
	// images a liveness obligation reads once it holds; 2a(i) and (2b)'s
	// entries share one. f is a liveness obligation's formula.
	walk *check.Obligation
	f    form.Formula
	// holds and detail are a static obligation's result; render, if set,
	// replaces SafetyResult.String as a safety obligation's detail.
	holds  bool
	detail string
	render func(*check.SafetyResult) string
}

// plan lists the proof obligations of Check, in report order:
//
//	(1)   E_i for each pair                            (Fig. 9, step 1)
//	(2a)  route A (Propositions 3 + 4):
//	      (i)   C(E) ∧ ⋀C(M_j) ⇒ C(M)                  (Fig. 9, step 2.2)
//	      (ii)  ⋀C(M_j) ⇒ Disjoint(e, m) and the initial-state disjunction
//	            of Proposition 4, giving ⋀C(M_j) ⇒ C(E) ⊥ C(M)  (step 2.1)
//	      (iii) v contains every free variable of C(M)  (Prop. 3's side
//	            condition, which then yields step 2)
//	      route B: C(M) on the +v monitor product      (step 2, directly)
//	(2b)  E ∧ ⋀M_j ⇒ M, safety and liveness halves     (Fig. 9, step 3)
//
// (1), 2a(i) and (2b) are read on the LHS graph, and 2a(i) is (2b)'s safety
// half: M.SafetyOnly().SafetyFormula() is M.SafetyFormula().
func (th *Theorem) plan() []obligation {
	var p []obligation
	for _, pr := range th.Pairs {
		if pr.Env == nil {
			p = append(p, obligation{name: fmt.Sprintf("H1[%s]: C(E) /\\ conj C(Mj) => TRUE", pr.Name), step: "1",
				holds: true, detail: "trivial (E_i = TRUE)"})
			continue
		}
		p = append(p, obligation{name: fmt.Sprintf("H1[%s]: C(E) /\\ conj C(Mj) => E_%s", pr.Name, pr.Name), step: "1",
			kind: safety, walk: &check.Obligation{F: pr.Env.SafetyFormula()}})
	}
	m := th.Concl.Sys
	cm := &check.Obligation{F: m.SafetyFormula(), Mapping: th.Concl.Mapping}
	p = append(p,
		obligation{name: "H2a-A(i): C(E) /\\ conj C(Mj) => C(M)", step: "2.2", kind: safety, walk: cm},
		th.disjointObligation(),
		th.initObligation(),
		th.coverObligation(),
		obligation{name: "H2a-B: C(E)+v /\\ conj C(Mj) => C(M)  [direct monitor]", step: "2", graph: productGraph,
			kind: safety, walk: cm},
		obligation{name: Hyp2bSafety, step: "3", kind: safety, walk: cm})
	if len(m.Fairness) > 0 {
		p = append(p, obligation{name: Hyp2bLiveness, step: "3", kind: liveness, walk: cm, f: m.FairnessFormula()})
	}
	return p
}

// disjointObligation is 2a(ii)'s Disjoint(e, m), where e and m are the
// conclusion's input and output tuples. Every step of the guarantees-only
// graph satisfies the guarantees' step constraints and each guarantee's
// [N]_v, so when those cover (e, m) it holds statically (see
// disjointCover), and its detail says why.
func (th *Theorem) disjointObligation() obligation {
	eVars, mVars := th.conclusionInterface()
	if len(eVars) == 0 || len(mVars) == 0 {
		return obligation{name: "H2a-A(ii): Disjoint(e, m)  [Prop 4]", step: "2.1", graph: guaranteesGraph,
			holds: true, detail: "trivial (empty interface)"}
	}
	o := obligation{name: "H2a-A(ii): conj C(Mj) => Disjoint(e, m)  [Prop 4]", step: "2.1", graph: guaranteesGraph}
	if by := th.disjointCover(eVars, mVars); by != "" {
		o.holds, o.detail = true, "static: "+by+" cover (e, m)"
	} else {
		o.kind, o.walk = safety, &check.Obligation{F: form.Disjoint(eVars, mVars)}
	}
	return o
}

// initObligation is 2a(ii)'s initial-state disjunction of Proposition 4:
// every initial state of the guarantees-only graph satisfies Init_E or the
// mapped Init_M.
func (th *Theorem) initObligation() obligation {
	o := obligation{name: "H2a-A(ii): Init_E \\/ Init_M at start  [Prop 4]", step: "2.1", graph: guaranteesGraph, holds: true}
	var preds []form.Expr
	if th.Concl.Env != nil && th.Concl.Env.Init != nil {
		preds = append(preds, th.Concl.Env.Init)
	}
	if mi := th.Concl.Sys.Init; mi != nil {
		preds = append(preds, mi.Subst(th.Concl.Mapping))
	}
	if len(preds) > 0 {
		o.kind, o.walk = safety, &check.Obligation{F: form.Pred(form.Or(preds...))}
		o.render = func(res *check.SafetyResult) string {
			if res.Holds {
				return ""
			}
			return fmt.Sprintf("initial state %s satisfies neither Init_E nor Init_M", res.Trace[0])
		}
	}
	return o
}

// coverObligation is Proposition 3's side condition (iii): v contains
// every free variable of the conclusion guarantee's closure.
func (th *Theorem) coverObligation() obligation {
	inV := form.AllVars(th.plusSub())
	var missing []string
	for _, v := range append(slices.Clone(th.Concl.Sys.Inputs), th.Concl.Sys.Outputs...) {
		if !slices.Contains(inV, v) {
			missing = append(missing, v)
		}
	}
	o := obligation{name: "H2a-A(iii): v contains the free variables of C(M)  [Prop 3]", step: "2",
		graph: guaranteesGraph, holds: len(missing) == 0}
	if len(missing) > 0 {
		o.detail = fmt.Sprintf("missing from v: %v", missing)
	}
	return o
}

// run validates the theorem, resolves its reduction and, in the theorem's
// span, decides the obligations of its plan that keep selects, one graph
// at a time in build order. A graph is built only if a kept obligation
// reads it or its product; only the guarantees-only graph outlives its
// obligations, for the product to extend, so the LHS graph is dropped
// before it is built. With firstFailure set, no graph is built once the
// decided entries settle the report. Every decided entry is reported in
// plan order, also when an error stops the check, so an Unknown verdict
// keeps what was decided; finishReport settles the verdict.
func (th *Theorem) run(m *engine.Meter, title string, keep func(*obligation) bool, firstFailure bool) (*Report, error) {
	if err := th.validate(); err != nil {
		return nil, err
	}
	r := &Report{TheoremName: th.Name + title, Valid: true}
	end := obs.FromMeter(m).Span("theorem:" + th.Name)
	th.rd = th.buildReduce(m)
	var p []obligation
	var reads [numGraphs]bool
	for _, o := range th.plan() {
		if keep(&o) {
			p = append(p, o)
			reads[o.graph] = true
		}
	}
	res := make([]*HypothesisResult, len(p))
	var base *ts.Graph
	var err error
	for gid := lhsGraph; gid < numGraphs && err == nil; gid++ {
		if !reads[gid] && (gid != guaranteesGraph || !reads[productGraph]) {
			continue
		}
		if firstFailure && settled(p, res, gid) {
			break
		}
		var g *ts.Graph
		if g, err = th.build(gid, base, m); err == nil {
			r.States = max(r.States, g.NumStates())
			if gid == guaranteesGraph {
				base = g
			}
			err = decide(p, res, gid, g)
		}
	}
	end()
	for i, h := range res {
		if h != nil {
			h.Name = p[i].name
			r.Hypotheses = append(r.Hypotheses, *h)
			r.Valid = r.Valid && h.Holds
		}
	}
	return finishReport(r, m, err)
}

// settled reports whether the decided entries fix the verdict and the
// first failing entry: one fails ahead of every entry of graph next and
// later. So a failure of (2b) alone, listed last, settles nothing.
func settled(p []obligation, res []*HypothesisResult, next graphID) bool {
	for i := range p {
		if res[i] != nil && !res[i].Holds {
			return true
		}
		if p[i].graph >= next {
			return false
		}
	}
	return false
}

// build builds graph gid; the product extends base, the guarantees-only
// graph, with a monitor enforcing "C(E) held for a prefix, after which v
// froze" (no E means TRUE).
func (th *Theorem) build(gid graphID, base *ts.Graph, m *engine.Meter) (g *ts.Graph, err error) {
	switch gid {
	case lhsGraph:
		if g, err = th.lhsSystem().BuildWith(m); err != nil {
			err = fmt.Errorf("building LHS graph: %w", err)
		}
	case guaranteesGraph:
		if g, err = th.guaranteesSystem().BuildWith(m); err != nil {
			err = fmt.Errorf("building guarantees-only graph: %w", err)
		}
	default:
		var envInit form.Expr
		var envSquares []form.Expr
		if env := th.Concl.Env; env != nil {
			envInit, envSquares = env.Init, []form.Expr{env.SquareExpr()}
		}
		mon := ts.PlusMonitor(plusVar, envInit, envSquares, th.plusSub())
		if g, err = ts.Product(base, []*ts.Monitor{mon}); err != nil {
			err = fmt.Errorf("hypothesis 2a (direct): +v monitor product: %w", err)
		}
	}
	return g, err
}

// decide decides into res the obligations of p read on g, graph gid: the
// static ones and the safety ones, in one walk of g, then the liveness ones
// on the images their safety halves' walk built, each in its graphSpans.
func decide(p []obligation, res []*HypothesisResult, gid graphID, g *ts.Graph) error {
	span := obs.FromMeter(g.Meter()).Span
	end := span(graphSpans[gid][0])
	var on []int
	var obls []check.Obligation
	walkOf := make(map[*check.Obligation]int)
	for i := range p {
		if p[i].graph != gid {
			continue
		}
		on = append(on, i)
		if _, ok := walkOf[p[i].walk]; p[i].walk != nil && !ok {
			walkOf[p[i].walk] = len(obls)
			obls = append(obls, *p[i].walk)
		}
	}
	ws, err := check.SafetyAll(g, obls)
	var lives []int
	for _, i := range on {
		o := &p[i]
		switch {
		case o.kind == static:
			res[i] = &HypothesisResult{Holds: o.holds, Detail: o.detail}
		case err != nil:
		case ws[walkOf[o.walk]].Err != nil:
			err = fmt.Errorf("%s: %w", o.name, ws[walkOf[o.walk]].Err)
		case o.kind == liveness:
			lives = append(lives, i)
		default:
			w := ws[walkOf[o.walk]].Result
			detail := w.String()
			if o.render != nil {
				detail = o.render(w)
			}
			res[i] = &HypothesisResult{Holds: w.Holds, Detail: detail}
		}
	}
	end()
	if err != nil || graphSpans[gid][1] == "" {
		return err
	}
	defer span(graphSpans[gid][1])()
	for _, i := range lives {
		o := &p[i]
		w := ws[walkOf[o.walk]]
		if !w.Result.Holds {
			res[i] = &HypothesisResult{Detail: "skipped: safety part failed"}
			continue
		}
		live, err := w.Liveness(g, o.f)
		if err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
		res[i] = &HypothesisResult{Holds: live.Holds, Detail: live.String()}
	}
	return nil
}
