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
	"opentla/internal/value"
)

// SafetyResult reports the outcome of a safety check.
type SafetyResult struct {
	Holds bool
	// Violation describes the first violation found, when Holds is false.
	Violation string
	// Trace is a finite behavior exhibiting the violation (ending at the
	// violating state or step).
	Trace state.Behavior
	// Stats snapshots the governing meter when the check completed.
	Stats engine.RunStats
}

// Verdict maps the decided result onto the three-valued scale (an
// undecided check surfaces as an error, not a result).
func (r *SafetyResult) Verdict() engine.Verdict {
	if r.Holds {
		return engine.Holds
	}
	return engine.Violated
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

// safetyObligation is a safety formula decomposed into checkable parts.
type safetyObligation struct {
	inits      []form.Expr    // must hold in every initial state
	invariants []form.Expr    // must hold in every reachable state
	boxes      []form.ActBoxF // every reachable step must satisfy [A]_sub
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
			ob.inits = append(ob.inits, n.P)
			return nil
		case form.AlwaysF:
			p, ok := n.F.(form.PredF)
			if !ok {
				return fmt.Errorf("safety decomposition: []F supported only for state predicates, got %s", n.F)
			}
			ob.invariants = append(ob.invariants, p.P)
			return nil
		case form.ActBoxF:
			ob.boxes = append(ob.boxes, n)
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
func SafetyUnder(g *ts.Graph, f form.Formula, mapping map[string]form.Expr) (result *SafetyResult, err error) {
	shown := f
	if mapping != nil {
		shown = f.Subst(mapping)
	}
	m := g.Meter()
	defer obs.FromMeter(m).Span("check:safety")()
	var cur *state.State
	defer engine.Capture(&err, "check.Safety", func() (string, string) {
		if cur != nil {
			return cur.Key(), shown.String()
		}
		return "", shown.String()
	})
	done := func(r *SafetyResult) (*SafetyResult, error) {
		r.Stats = m.Stats()
		return r, nil
	}
	ob, err := decomposeSafety(shown)
	if err != nil {
		return nil, err
	}
	// Every state of one graph binds the same variable set, and so does
	// every image; compiling the obligation's predicates against those
	// layouts once keeps the per-state and per-edge evaluation positional
	// and allocation-free.
	var layout []string
	if len(g.States) > 0 {
		layout = g.States[0].Vars()
	}
	var im *imager
	raw := &safetyObligation{}
	if mapping != nil {
		// Subst keeps a formula's shape, so f decomposes as F̄ does.
		if raw, err = decomposeSafety(f); err != nil {
			return nil, err
		}
		im = newImager(g.States, mapping)
		for id, s := range g.States {
			if err := m.Tick(); err != nil {
				return nil, err
			}
			cur = s
			im.images[id] = im.of(s)
		}
	}
	inits := im.compile(ob.inits, raw.inits, layout)
	invs := im.compile(ob.invariants, raw.invariants, layout)
	boxes := im.compile(squares(ob.boxes), squares(raw.boxes), layout)
	// Initial predicates.
	for _, id := range g.Inits {
		s := g.States[id]
		cur = s
		for i, p := range inits {
			ok, err := p.eval(state.Step{From: s}, im.state(id))
			if err != nil {
				return nil, fmt.Errorf("initial predicate %s on %s: %w", ob.inits[i], s, err)
			}
			if !ok {
				return done(&SafetyResult{
					Violation: fmt.Sprintf("initial state violates %s", ob.inits[i]),
					Trace:     state.Behavior{s},
				})
			}
		}
	}
	// Invariants.
	for id, s := range g.States {
		if err := m.Tick(); err != nil {
			return nil, err
		}
		cur = s
		for i, p := range invs {
			ok, err := p.eval(state.Step{From: s}, im.state(id))
			if err != nil {
				return nil, fmt.Errorf("invariant %s on %s: %w", ob.invariants[i], s, err)
			}
			if !ok {
				return done(&SafetyResult{
					Violation: fmt.Sprintf("reachable state violates invariant %s", ob.invariants[i]),
					Trace:     g.Behavior(g.PathTo(id)),
				})
			}
		}
	}
	// Action boxes.
	var res *SafetyResult
	var evalErr error
	// ForEachEdgeStep hands every edge as a GENUINE step of the system: on a
	// symmetry-reduced graph the target id is a canonical representative, but
	// real is the actual post-state of the step, so box evaluation (and any
	// violating trace) never sees a representative-to-representative
	// pseudo-step the system cannot take.
	g.ForEachEdgeStep(func(from, to int, real *state.State) bool {
		if err := m.Tick(); err != nil {
			evalErr = err
			return false
		}
		st := state.Step{From: g.States[from], To: real}
		cur = st.From
		img := im.step(from, to, real)
		for i, sq := range boxes {
			ok, err := sq.eval(st, img)
			if err != nil {
				evalErr = fmt.Errorf("box %s on step %s: %w", ob.boxes[i], st, err)
				return false
			}
			if !ok {
				path := g.PathTo(from)
				trace := append(g.Behavior(path), real)
				res = &SafetyResult{
					Violation: fmt.Sprintf("reachable step violates %s", ob.boxes[i]),
					Trace:     trace,
				}
				return false
			}
		}
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if res != nil {
		return done(res)
	}
	return done(&SafetyResult{Holds: true})
}

// Invariant checks □P for a single state predicate.
func Invariant(g *ts.Graph, p form.Expr) (*SafetyResult, error) {
	return Safety(g, form.AlwaysPred(p))
}

// squares returns the action [A]_v of each box □[A]_v.
func squares(boxes []form.ActBoxF) []form.Expr {
	out := make([]form.Expr, len(boxes))
	for i, b := range boxes {
		out[i] = form.Square(b.A, b.Sub)
	}
	return out
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

// imager holds the image of every graph state under a refinement mapping
// (see SafetyUnder). A nil imager stands for no mapping: it has no images.
type imager struct {
	states []*state.State
	names  []string
	exprs  []form.Expr
	vals   map[string]value.Value // scratch for of
	images []*state.State         // by state id; nil where the mapping fails
	layout []string               // variables of every image
}

func newImager(states []*state.State, mapping map[string]form.Expr) *imager {
	im := &imager{
		states: states,
		vals:   make(map[string]value.Value, len(mapping)),
		images: make([]*state.State, len(states)),
	}
	for name, e := range mapping {
		im.names = append(im.names, name)
		im.exprs = append(im.exprs, e)
	}
	return im
}

// of returns the image of s: s with every mapped variable bound to its
// mapped value, or nil if one fails to evaluate on s.
func (im *imager) of(s *state.State) *state.State {
	for i, e := range im.exprs {
		v, err := form.EvalState(e, s)
		if err != nil {
			return nil
		}
		im.vals[im.names[i]] = v
	}
	img := s.WithAll(im.vals)
	if im.layout == nil {
		im.layout = img.Vars()
	}
	return img
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
func (im *imager) step(from, to int, real *state.State) state.Step {
	if im == nil || im.images[from] == nil {
		return state.Step{}
	}
	img := im.images[to]
	if real != im.states[to] {
		img = im.of(real)
	}
	if img == nil {
		return state.Step{}
	}
	return state.Step{From: im.images[from], To: img}
}
