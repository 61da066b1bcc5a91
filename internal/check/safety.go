// Package check implements explicit-state model checking of TLA properties
// over the state graphs of package ts: safety checking by reachability,
// refinement via substitution of refinement mappings, and liveness checking
// by fair-cycle detection with WF/SF treated as Streett-style acceptance
// conditions.
//
// Together with package ag these checks discharge the hypotheses of the
// Composition Theorem of Abadi & Lamport, "Open Systems in TLA" (§5), each
// of which asserts that a complete system satisfies a property — exactly
// the kind of query an explicit-state model checker decides.
package check

import (
	"fmt"
	"strings"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/state"
	"opentla/internal/ts"
)

// SafetyResult reports the outcome of a safety check.
type SafetyResult struct {
	Holds bool
	// Violation describes the first violation found, when Holds is false.
	Violation string
	// Trace is a finite behavior exhibiting the violation (ending at the
	// violating state or step).
	Trace state.Behavior
}

// String renders the result.
func (r *SafetyResult) String() string {
	if r.Holds {
		return "safety holds"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "safety violated: %s\n", r.Violation)
	sb.WriteString(r.Trace.String())
	return sb.String()
}

// safetyObligation is a safety formula decomposed into what each phase
// of a walk checks (see initPhase): the initial predicates, which must
// hold in every initial state; the invariants, in every reachable state;
// and the actions [A]_v of the boxes □[A]_v, on every reachable step.
type safetyObligation struct {
	preds [3][]form.Expr
	names [3][]fmt.Stringer // each part as the formula states it
}

func (ob *safetyObligation) add(ph int, p form.Expr, name fmt.Stringer) {
	ob.preds[ph] = append(ob.preds[ph], p)
	ob.names[ph] = append(ob.names[ph], name)
}

// decomposeSafety splits a safety formula into initial predicates,
// invariants, and action boxes. Supported forms: Pred(P), □P (AlwaysF of a
// predicate), □[A]_v (ActBoxF), and conjunctions thereof. Other forms
// return an error.
func decomposeSafety(f form.Formula) (*safetyObligation, error) {
	ob := &safetyObligation{}
	var walk func(g form.Formula) error
	walk = func(g form.Formula) error {
		switch n := g.(type) {
		case form.PredF:
			ob.add(initPhase, n.P, n.P)
			return nil
		case form.AlwaysF:
			p, ok := n.F.(form.PredF)
			if !ok {
				return fmt.Errorf("safety decomposition: []F supported only for state predicates, got %s", n.F)
			}
			ob.add(invPhase, p.P, p.P)
			return nil
		case form.ActBoxF:
			ob.add(boxPhase, form.Square(n.A, n.Sub), n)
			return nil
		case form.AndFm:
			for _, c := range n.Fs {
				if err := walk(c); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("safety decomposition: unsupported formula %s", g)
		}
	}
	if err := walk(f); err != nil {
		return nil, err
	}
	return ob, nil
}

// Safety checks that every behavior of the graph satisfies the safety
// formula f (a conjunction of initial predicates, invariants □P, and boxes
// □[A]_v). Because every graph state has a stuttering self-loop, checking
// all reachable states and edges is exact.
func Safety(g *ts.Graph, f form.Formula) (*SafetyResult, error) {
	return SafetyUnder(g, f, nil)
}

// Invariant checks □P for a single state predicate.
func Invariant(g *ts.Graph, p form.Expr) (*SafetyResult, error) {
	return Safety(g, form.AlwaysPred(p))
}

// SafetyUnder checks g ⊨ F̄, where F̄ is the safety formula f with the
// refinement mapping (abstract variable → concrete state function)
// substituted into it (§A.4). With a nil mapping it checks f directly.
//
// Under a mapping the check reads images instead of substituting: a state's
// image is the state with every mapped variable bound to its mapped value,
// computed once per state, and f's own predicates, compiled against the
// image layout, are evaluated on the image of each state and step. That is
// the capture-free meaning of F̄, so it agrees with Subst wherever Subst
// does not capture a bound name. Where a mapped value or an image
// evaluation fails, the step is evaluated as F̄ on the concrete states,
// which re-derives the error F̄ reports. Messages and errors name F̄, and
// traces are concrete behaviors.
//
// The check is governed by the graph's resource meter: exhaustion aborts
// with an *engine.BudgetError, and panics during evaluation are contained
// as *engine.EngineError carrying the offending state and formula.
func SafetyUnder(g *ts.Graph, f form.Formula, mapping map[string]form.Expr) (*SafetyResult, error) {
	ws, err := SafetyAll(g, []Obligation{{F: f, Mapping: mapping}})
	if err != nil {
		return nil, err
	}
	return ws[0].Result, ws[0].Err
}

// An Obligation is one safety check g ⊨ F̄ of a SafetyAll walk: F is the
// safety formula and Mapping the refinement mapping substituted into it,
// nil for none, as in SafetyUnder.
type Obligation struct {
	F       form.Formula
	Mapping map[string]form.Expr
}

// Walked is one obligation of a SafetyAll walk with its outcome: exactly
// the result, or the error, that SafetyUnder returns for it alone.
type Walked struct {
	Obligation
	Result *SafetyResult // nil when Err is set
	Err    error

	im    *imager
	shown form.Formula      // F̄, which messages and errors name
	ob    *safetyObligation // F̄ decomposed
	preds [3][]obligationPred
}

// The phases of a SafetyAll walk, in order; they index the parts of
// Walked.preds, safetyObligation and phases.
const (
	initPhase = iota
	invPhase
	boxPhase
)

// phases holds the formats of each phase's errors and violations.
var phases = [3]struct{ err, violation string }{
	{"initial predicate %s on %s: %w", "initial state violates %s"},
	{"invariant %s on %s: %w", "reachable state violates invariant %s"},
	{"box %s on step %s: %w", "reachable step violates %s"},
}

func (w *Walked) done() bool { return w.Result != nil || w.Err != nil }

// prepare builds w's images under its mapping and compiles its predicates.
// An error the meter reports aborts the walk; any other is w's own.
func (w *Walked) prepare(g *ts.Graph, layout []string, cur **state.State) error {
	raw := &safetyObligation{}
	if w.Mapping != nil {
		// Subst keeps a formula's shape, so F decomposes as F̄ does.
		if raw, w.Err = decomposeSafety(w.F); w.Err != nil {
			return nil
		}
		if w.im, w.Err = imagesOf(g, w.Mapping, cur); w.Err != nil {
			return g.Meter().Err()
		}
	}
	for ph := range w.preds {
		w.preds[ph] = w.im.compile(w.ob.preds[ph], raw.preds[ph], layout)
	}
	return nil
}

// settle evaluates w's predicates of phase ph on st (with image img) and
// settles w on the first one that is false or fails. It reports whether
// that was a violation, whose trace the caller adds.
func (w *Walked) settle(ph int, st, img state.Step) bool {
	for i, p := range w.preds[ph] {
		ok, err := p.eval(st, img)
		switch {
		case err != nil:
			var at any = st
			if ph != boxPhase {
				at = st.From
			}
			w.Err = fmt.Errorf(phases[ph].err, w.ob.names[ph][i], at, err)
			return false
		case !ok:
			w.Result = &SafetyResult{Violation: fmt.Sprintf(phases[ph].violation, w.ob.names[ph][i])}
			return true
		}
	}
	return false
}

// pending reports whether some undecided obligation has predicates in phase ph.
func pending(ws []*Walked, ph int) bool {
	for _, w := range ws {
		if !w.done() && len(w.preds[ph]) > 0 {
			return true
		}
	}
	return false
}

// SafetyAll checks every obligation on g in one walk: the initial states,
// then the reachable states by id, then the edges by source id and, within
// a source, in ForEachSuccEdge order. Each obligation drops out at its own
// first violation or error, so its Walked is what SafetyUnder returns for
// it alone. Budget exhaustion
// and contained panics abort the whole walk. A walk that reads only
// initial states (no invariant, box or mapping) opens no check:safety span.
func SafetyAll(g *ts.Graph, obls []Obligation) (ws []*Walked, err error) {
	m := g.Meter()
	ws = make([]*Walked, len(obls))
	walks := false
	for i, o := range obls {
		w := &Walked{Obligation: o, shown: o.F}
		if o.Mapping != nil {
			w.shown = o.F.Subst(o.Mapping)
		}
		w.ob, w.Err = decomposeSafety(w.shown)
		walks = walks || w.Err == nil && (o.Mapping != nil || len(w.ob.preds[invPhase])+len(w.ob.preds[boxPhase]) > 0)
		ws[i] = w
	}
	if walks {
		defer obs.FromMeter(m).Span("check:safety")()
	}
	var cur *state.State
	var curW *Walked
	defer engine.Capture(&err, "check.Safety", func() (st, f string) {
		if cur != nil {
			st = cur.Key()
		}
		if curW != nil {
			f = curW.shown.String()
		}
		return st, f
	})
	// Every state of one graph binds the same variable set, and so does
	// every image; compiling the obligations' predicates against those
	// layouts once keeps the per-state and per-edge evaluation positional
	// and allocation-free.
	var layout []string
	if len(g.States) > 0 {
		layout = g.States[0].Vars()
	}
	for _, w := range ws {
		if curW = w; !w.done() {
			if err := w.prepare(g, layout, &cur); err != nil {
				return nil, err
			}
		}
	}
	for _, id := range g.Inits {
		s := g.States[id]
		cur = s
		for _, w := range ws {
			if curW = w; !w.done() && w.settle(initPhase, state.Step{From: s}, w.im.state(id)) {
				w.Result.Trace = state.Behavior{s}
			}
		}
	}
	for id := 0; id < len(g.States) && pending(ws, invPhase); id++ {
		if err := m.Tick(); err != nil {
			return nil, err
		}
		cur = g.States[id]
		for _, w := range ws {
			if curW = w; !w.done() && w.settle(invPhase, state.Step{From: cur}, w.im.state(id)) {
				w.Result.Trace = g.BehaviorTo(id)
			}
		}
	}
	// Every edge is read as a GENUINE step of the system: on a
	// symmetry-reduced graph the target id is a canonical representative,
	// but EdgeReal is the actual post-state of the step, so box evaluation
	// never sees a representative-to-representative pseudo-step the system
	// cannot take. A violating trace is lifted likewise (see
	// ts.Graph.BehaviorTo).
	var tickErr error
	for from := 0; from < len(g.States) && tickErr == nil && pending(ws, boxPhase); from++ {
		g.ForEachSuccEdge(from, func(k, to int) bool {
			if tickErr = m.Tick(); tickErr != nil {
				return false
			}
			real := g.EdgeReal(k)
			st := state.Step{From: g.States[from], To: real}
			cur = st.From
			for _, w := range ws {
				if curW = w; w.done() || len(w.preds[boxPhase]) == 0 {
					continue
				}
				if img, err := w.im.step(from, to, real); err != nil {
					w.Err = err
				} else if w.settle(boxPhase, st, img) {
					w.Result.Trace = append(g.BehaviorTo(from), real)
				}
			}
			return pending(ws, boxPhase)
		})
	}
	if tickErr != nil {
		return nil, tickErr
	}
	for _, w := range ws {
		if !w.done() {
			w.Result = &SafetyResult{Holds: true}
		}
	}
	return ws, nil
}

// obligationPred is one predicate of a safety obligation: F̄'s, compiled
// against the graph layout, and under a mapping f's own, compiled against
// the image layout.
type obligationPred struct {
	concrete form.CompiledPred
	image    form.CompiledPred // nil without a mapping
}

// eval evaluates the predicate on the image step img when there is one and
// it evaluates, and as F̄ on the concrete step st otherwise.
func (p obligationPred) eval(st, img state.Step) (bool, error) {
	if img.From != nil {
		if ok, err := p.image(img); err == nil {
			return ok, nil
		}
	}
	return p.concrete(st)
}

// compile compiles the predicates shown of F̄ against layout and, under a
// mapping, the corresponding predicates raw of f against the image layout.
func (im *imager) compile(shown, raw []form.Expr, layout []string) []obligationPred {
	ps := make([]obligationPred, len(shown))
	for i, e := range shown {
		ps[i].concrete = form.CompilePred(e, layout)
		if im != nil {
			ps[i].image = form.CompilePred(raw[i], im.layout)
		}
	}
	return ps
}

// state returns the image step of state id, or the zero step if there is
// none.
func (im *imager) state(id int) state.Step {
	if im == nil || im.images[id] == nil {
		return state.Step{}
	}
	return state.Step{From: im.images[id]}
}

// step returns the image of the step from state from to real, a state whose
// canonical representative is state to, or the zero step if either image
// is missing. A real successor that is not a graph state (on a
// symmetry-reduced graph) gets its image computed here.
func (im *imager) step(from, to int, real *state.State) (state.Step, error) {
	if im == nil || im.images[from] == nil {
		return state.Step{}, nil
	}
	img := im.images[to]
	if real != im.states[to] {
		var err error
		if img, err = im.of(real); err != nil {
			return state.Step{}, err
		}
	}
	if img == nil {
		return state.Step{}, nil
	}
	return state.Step{From: im.images[from], To: img}, nil
}
