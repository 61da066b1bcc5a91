package check

import (
	"fmt"
	"strings"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// LivenessResult reports the outcome of a liveness check.
type LivenessResult struct {
	Holds bool
	// Violated names the target conjunct that failed, when Holds is false.
	Violated string
	// Counterexample is a fair lasso violating the target.
	Counterexample *state.Lasso
}

// String renders the result.
func (r *LivenessResult) String() string {
	if r.Holds {
		return "liveness holds"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "liveness violated: %s\n", r.Violated)
	if r.Counterexample != nil {
		sb.WriteString(r.Counterexample.String())
	}
	return sb.String()
}

// memoState caches a state predicate over graph IDs, one entry per state:
// 0 not yet evaluated, 1 false, 2 true. The first evaluation error is kept.
func memoState(g *ts.Graph, f func(id int) (bool, error)) (StateMask, *error) {
	cache := make([]int8, len(g.States))
	var firstErr error
	return func(id int) bool {
		if c := cache[id]; c != 0 {
			return c == 2
		}
		v, err := f(id)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		cache[id] = 1
		if v {
			cache[id] = 2
		}
		return v
	}, &firstErr
}

// angleMasks compiles ⟨A⟩_sub against the graph's state layout (every
// state of one graph binds the same variable set) into the memoized
// ENABLED ⟨A⟩_sub state mask, whose first evaluation error lands in
// *enErr, and the edge predicate "this edge is an ⟨A⟩_sub step", read on
// the edge's real successor, whose first evaluation error lands in *errs.
// The enabledness functions reuse scratch buffers (see form.Ctx.EnabledFn)
// and so share memoState's single-goroutine contract.
//
// raw and im are nil, or ⟨A⟩_sub is the substitution of a refinement
// mapping into raw and im holds the graph's images under that mapping. In
// the second case the edge predicate reads the images as SafetyUnder does:
// it evaluates raw on the image step, and ⟨A⟩_sub on the concrete step
// where an image is missing or raw fails on it, so it reports the
// substituted formula's errors. The ENABLED mask is read on the images too
// when the side conditions of imager.abstractSide hold: it evaluates
// ENABLED raw on each state's image, and ENABLED ⟨A⟩_sub on the concrete
// state where the image is missing or raw's evaluation fails. Otherwise
// it evaluates ENABLED ⟨A⟩_sub, as it does without a mapping. The two
// readings agree wherever both evaluate without error, but they enumerate
// candidates in different orders, so on a state where ENABLED ⟨A⟩_sub
// fails on one candidate before reaching a witness, the image may be
// enabled through the witness: the mask is then TRUE where the substituted
// mask errors. Each mapped mask is counted in the recorder by the side it
// is read on.
func angleMasks(g *ts.Graph, action, sub, raw form.Expr, im *imager, errs *error) (enabled StateMask, enErr *error, taken EdgeMask) {
	var layout []string
	if len(g.States) > 0 {
		layout = g.States[0].Vars()
	}
	angle := form.Angle(action, sub)
	stepPred := im.compile([]form.Expr{angle}, []form.Expr{raw}, layout)[0]
	enabled, enErr = memoState(g, enabledOf(g, angle, raw, im, layout))
	taken = func(from, k int) bool {
		real := g.EdgeReal(k)
		st := state.Step{From: g.States[from], To: real}
		img, err := im.step(from, g.EdgeTarget(k), real)
		ok := false
		if err == nil {
			ok, err = stepPred.eval(st, img)
		}
		if err != nil && *errs == nil {
			*errs = err
		}
		return ok
	}
	return enabled, enErr, taken
}

// enabledOf returns ENABLED angle as a function of graph state ids, read
// on the images as angleMasks describes when raw and im allow it. The
// substituted enabledness function is compiled on first use, so a mask
// read wholly on the images never compiles it.
func enabledOf(g *ts.Graph, angle, raw form.Expr, im *imager, layout []string) func(id int) (bool, error) {
	var subFn func(*state.State) (bool, error)
	substituted := func(id int) (bool, error) {
		if subFn == nil {
			subFn = g.Ctx.EnabledFn(angle, layout)
		}
		return subFn(g.States[id])
	}
	if raw == nil {
		return substituted
	}
	abstract := im.abstractSide(g, raw)
	obs.FromMeter(g.Meter()).EnabledMask(abstract)
	if !abstract {
		return substituted
	}
	absFn := g.Ctx.EnabledFn(raw, im.layout)
	return func(id int) (bool, error) {
		if img := im.images[id]; img != nil {
			if ok, err := absFn(img); err == nil {
				return ok, nil
			}
		}
		return substituted(id)
	}
}

// FairnessConds translates the WF/SF assumptions of the graph's system
// components into cycle acceptance conditions. Enabledness is evaluated via
// the context's domains and cached per state.
func FairnessConds(g *ts.Graph) ([]CycleCond, *error) {
	var conds []CycleCond
	errs := new(error)
	for _, c := range g.Sys.Components {
		conds = componentFairness(g, c, conds, errs)
	}
	return conds, errs
}

// componentFairness appends the cycle conditions of c's WF/SF assumptions
// to conds.
func componentFairness(g *ts.Graph, c *spec.Component, conds []CycleCond, errs *error) []CycleCond {
	for _, fc := range c.Fairness {
		sub := fc.Sub
		if sub == nil {
			sub = c.SubTuple()
		}
		conds = append(conds, fairnessCond(g, fmt.Sprintf("%s/%s", c.Name, fc.Kind), form.FairF{Kind: fc.Kind, A: fc.Action, Sub: sub}, errs))
	}
	return conds
}

// fairnessCond builds the cycle condition for one WF/SF assumption.
func fairnessCond(g *ts.Graph, name string, f form.FairF, errs *error) CycleCond {
	enabled, enErr, taken := angleMasks(g, f.A, f.Sub, nil, nil, errs)
	cond := CycleCond{Name: name, HitEdge: taken, From: f}
	if f.Kind == form.Weak {
		// Fair iff cycle has a ¬enabled state or a taken edge.
		cond.Buchi = true
		cond.HitState = func(id int) bool {
			v := enabled(id)
			if *enErr != nil && *errs == nil {
				*errs = *enErr
			}
			return !v
		}
	} else {
		// Fair iff (cycle has an enabled state ⇒ cycle has a taken edge).
		cond.TrigState = func(id int) bool {
			v := enabled(id)
			if *enErr != nil && *errs == nil {
				*errs = *enErr
			}
			return v
		}
	}
	return cond
}

// Liveness checks that every behavior of the graph satisfying the system's
// fairness assumptions satisfies the target formula. The target may be a
// conjunction of:
//
//	◇P, □◇P, ◇□P          (P a state predicate)
//	□(P ⇒ ◇Q)              (leads-to)
//	WF_v(A), SF_v(A)        (fairness obligations, e.g. of an abstract spec)
//
// An optional refinement mapping is substituted into the target first.
// A WF/SF target's taken-edge test, and its ENABLED mask where the mapping
// allows, then read the states' images under the mapping instead (see
// angleMasks), with the same results and errors, but for one divergence:
// an ENABLED mask read on the images may hold on a state where the
// substituted mask fails with an error before it finds a witness.
//
// On a symmetry-reduced graph each conjunct is decided on the orbit
// representatives, and a counterexample is lifted to a behavior of the
// system; a conjunct the group does not leave invariant is an error (see
// FindFairLasso).
//
// The check is governed by the graph's resource meter: exhaustion aborts
// with an *engine.BudgetError, and panics during the fair-cycle search are
// contained as *engine.EngineError carrying the target conjunct.
func Liveness(g *ts.Graph, target form.Formula, mapping map[string]form.Expr) (*LivenessResult, error) {
	return (&Walked{Obligation: Obligation{Mapping: mapping}}).Liveness(g, target)
}

// Liveness checks target under the walked obligation's mapping, as
// Liveness does, reading the images the walk built; a Walked with no
// images builds them if a WF/SF target needs them.
func (w *Walked) Liveness(g *ts.Graph, target form.Formula) (*LivenessResult, error) {
	return w.liveness(g, target, nil)
}

// liveness is Liveness where a counterexample's cycle must also satisfy
// the acceptance conditions extra.
func (w *Walked) liveness(g *ts.Graph, target form.Formula, extra []CycleCond) (result *LivenessResult, err error) {
	mapping := w.Mapping
	shown := target
	if mapping != nil {
		shown = target.Subst(mapping)
	}
	m := g.Meter()
	defer obs.FromMeter(m).Span("check:liveness")()
	var curTarget form.Formula
	defer engine.Capture(&err, "check.Liveness", func() (string, string) {
		if curTarget != nil {
			return "", curTarget.String()
		}
		return "", shown.String()
	})
	conjuncts := flattenConjuncts(shown)
	var raws []form.Formula
	if mapping != nil {
		// Subst keeps a formula's shape, so target flattens as shown does.
		raws = flattenConjuncts(target)
	}
	fair, ferr := FairnessConds(g)
	fair = append(fair, extra...)
	for i, cj := range conjuncts {
		curTarget = cj
		var raw form.Expr
		if _, ok := cj.(form.FairF); ok && mapping != nil {
			if w.im == nil {
				if w.im, err = imagesOf(g, mapping, new(*state.State)); err != nil {
					return nil, err
				}
			}
			rt := raws[i].(form.FairF)
			raw = form.Angle(rt.A, rt.Sub)
		}
		res, err := checkLivenessConjunct(g, fair, cj, raw, w.im)
		if err != nil {
			return nil, err
		}
		if *ferr != nil {
			return nil, *ferr
		}
		if err := m.Err(); err != nil {
			return nil, err
		}
		if !res.Holds {
			return res, nil
		}
	}
	return &LivenessResult{Holds: true}, nil
}

func flattenConjuncts(f form.Formula) []form.Formula {
	if and, ok := f.(form.AndFm); ok {
		var out []form.Formula
		for _, c := range and.Fs {
			out = append(out, flattenConjuncts(c)...)
		}
		return out
	}
	return []form.Formula{f}
}

// predMask builds a cached mask for a state predicate.
func predMask(g *ts.Graph, p form.Expr) (StateMask, *error) {
	return memoState(g, func(id int) (bool, error) {
		return form.EvalStateBool(p, g.States[id])
	})
}

func notMask(m StateMask) StateMask { return func(id int) bool { return !m(id) } }

// checkLivenessConjunct checks one conjunct of a liveness target. raw, for
// a WF/SF conjunct under a refinement mapping, is its ⟨A⟩_v before
// substitution and im the images to read it on (see angleMasks).
func checkLivenessConjunct(g *ts.Graph, fair []CycleCond, target form.Formula, raw form.Expr, im *imager) (*LivenessResult, error) {
	name := target.String()
	switch t := target.(type) {
	case form.EventuallyF:
		if p, ok := t.F.(form.PredF); ok {
			// ◇P: a violation is a fair lasso confined to ¬P.
			return checkPredLasso(g, p.P, name, func(notP StateMask) LassoQuery {
				return LassoQuery{StartIDs: g.Inits, PrefixState: notP, CycleState: notP, Conds: fair, Target: target}
			})
		}
		if alw, ok := t.F.(form.AlwaysF); ok {
			if p, ok := alw.F.(form.PredF); ok {
				// ◇□P: a violation is a fair lasso whose cycle contains a ¬P
				// state.
				return checkPredLasso(g, p.P, name, func(notP StateMask) LassoQuery {
					hit := CycleCond{Name: "hits ~P", Buchi: true, HitState: notP, From: target}
					return LassoQuery{StartIDs: g.Inits, Conds: append(append([]CycleCond(nil), fair...), hit), Target: target}
				})
			}
		}
	case form.AlwaysF:
		// □◇P: a violation is a fair lasso whose cycle is confined to ¬P
		// (the prefix is unrestricted).
		if ev, ok := t.F.(form.EventuallyF); ok {
			if p, ok := ev.F.(form.PredF); ok {
				return checkPredLasso(g, p.P, name, func(notP StateMask) LassoQuery {
					return LassoQuery{StartIDs: g.Inits, CycleState: notP, Conds: fair, Target: target}
				})
			}
		}
		// Leads-to □(P ⇒ ◇Q).
		if imp, ok := t.F.(form.ImpliesFmN); ok {
			p, pok := imp.A.(form.PredF)
			if pok {
				if ev, ok := imp.B.(form.EventuallyF); ok {
					if q, ok := ev.F.(form.PredF); ok {
						return checkLeadsTo(g, fair, p.P, q.P, target)
					}
				}
			}
		}
	case form.FairF:
		return checkFairTarget(g, fair, t, raw, im)
	}
	return nil, fmt.Errorf("liveness: unsupported target conjunct %s", target)
}

// checkPredLasso checks a target about the state predicate p whose
// violations are the fair lassos query finds, given the mask of ¬P.
func checkPredLasso(g *ts.Graph, p form.Expr, name string, query func(notP StateMask) LassoQuery) (*LivenessResult, error) {
	mask, merr := predMask(g, p)
	w, err := FindFairLasso(g, query(notMask(mask)))
	if err != nil {
		return nil, err
	}
	if *merr != nil {
		return nil, *merr
	}
	return lassoResult(g, w, name)
}

// checkLeadsTo checks □(P ⇒ ◇Q): a violation reaches a (P ∧ ¬Q) state and
// then stays in ¬Q forever along a fair lasso. One search from the initial
// states gives both the starts and the lead to the lasso found.
func checkLeadsTo(g *ts.Graph, fair []CycleCond, p, q form.Expr, target form.Formula) (*LivenessResult, error) {
	pMask, perr := predMask(g, p)
	qMask, qerr := predMask(g, q)
	notQ := notMask(qMask)
	reach := g.Search(g.Inits, nil, nil, -1)
	var starts []int
	for id := range g.States {
		if reach.Reached(id) && pMask(id) && notQ(id) {
			starts = append(starts, id)
		}
	}
	if *perr != nil {
		return nil, *perr
	}
	if *qerr != nil {
		return nil, *qerr
	}
	if len(starts) == 0 {
		return &LivenessResult{Holds: true}, nil
	}
	w, err := FindFairLasso(g, LassoQuery{
		StartIDs:    starts,
		PrefixState: notQ,
		CycleState:  notQ,
		Conds:       fair,
		Target:      target,
	})
	if err != nil {
		return nil, err
	}
	if *qerr != nil {
		return nil, *qerr
	}
	if w == nil {
		return &LivenessResult{Holds: true}, nil
	}
	// Stitch the path from an initial state to the witness's start.
	lead, _ := reach.Path(w.start(g))
	return lassoResult(g, &LassoWitness{
		PrefixEdges: append(lead.Edges, w.PrefixEdges...),
		CycleEdges:  w.CycleEdges,
	}, target.String())
}

// checkFairTarget checks a WF/SF obligation of an abstract specification:
//
//	WF_v(A) violated ⟺ fair cycle with every state enabling ⟨A⟩_v and no
//	                    ⟨A⟩_v edge;
//	SF_v(A) violated ⟺ fair cycle with some state enabling ⟨A⟩_v and no
//	                    ⟨A⟩_v edge.
//
// raw and im, when t is substituted from a refinement mapping, are as for
// angleMasks.
func checkFairTarget(g *ts.Graph, fair []CycleCond, t form.FairF, raw form.Expr, im *imager) (*LivenessResult, error) {
	var takenErr error
	enabled, enErr, taken := angleMasks(g, t.A, t.Sub, raw, im, &takenErr)
	q := LassoQuery{
		StartIDs:  g.Inits,
		CycleEdge: func(from, k int) bool { return !taken(from, k) },
		Conds:     fair,
		Target:    t,
	}
	if t.Kind == form.Weak {
		q.CycleState = enabled
	} else {
		q.Conds = append(append([]CycleCond(nil), fair...), CycleCond{
			Name:     "hits enabled state",
			Buchi:    true,
			HitState: enabled,
			From:     t,
		})
	}
	w, err := FindFairLasso(g, q)
	if err != nil {
		return nil, err
	}
	if *enErr != nil {
		return nil, *enErr
	}
	if takenErr != nil {
		return nil, takenErr
	}
	return lassoResult(g, w, t.String())
}

func lassoResult(g *ts.Graph, w *LassoWitness, name string) (*LivenessResult, error) {
	if w == nil {
		return &LivenessResult{Holds: true}, nil
	}
	l, err := w.ToLasso(g)
	if err != nil {
		return nil, err
	}
	return &LivenessResult{Holds: false, Violated: name, Counterexample: l}, nil
}
