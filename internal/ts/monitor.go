package ts

import (
	"fmt"
	"strings"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/state"
	"opentla/internal/value"
)

// Monitor is a (possibly nondeterministic) safety automaton run in product
// with a state graph. Its current value is recorded in the product states
// under Var, so ordinary state predicates can inspect it.
//
// Monitors express history-dependent constraints such as the paper's
// C(E) +v operator (§4.1): "E held for some prefix, after which v froze".
type Monitor struct {
	Var string
	// Domain lists the monitor's possible values (used for the product
	// context's domains).
	Domain []value.Value
	// Desc is a canonical description of the monitor's semantics, used to
	// content-address monitor products in the graph cache. Constructors
	// (SafetyMonitor, PlusMonitor) fill it from their defining formulas; a
	// hand-rolled monitor may leave it empty, which disables caching for any
	// product it participates in (opaque callbacks cannot be fingerprinted).
	Desc string
	// Init returns the allowed starting values in an initial state
	// (empty = state disallowed).
	Init func(s *state.State) ([]value.Value, error)
	// Step returns the allowed next values given the base step and the
	// current value (empty = edge disallowed for this value).
	Step func(st state.Step, cur value.Value) ([]value.Value, error)
}

// Product runs the monitors in lockstep with the graph and returns the
// product graph. Product states extend base states with the monitor
// variables; edges exist where the base edge exists and every monitor
// permits it. The product context's domains include the monitor variables.
//
// The product is explored by the same parallel frontier engine as BuildWith
// (worker count g.Sys.Workers, deterministic numbering at any setting) and
// inherits the base graph's resource meter: product states and edges draw
// from the same budget as the base exploration, and exhaustion aborts with
// an *engine.BudgetError. Panics inside monitor callbacks are contained as
// *engine.EngineError with the current product state's fingerprint.
func Product(g *Graph, mons []*Monitor) (p *Graph, err error) {
	meter := g.Meter()
	defer obs.FromMeter(meter).Span("product:" + g.Sys.Name)()
	defer engine.Capture(&err, "ts.Product", nil)
	domains := make(map[string][]value.Value, len(g.Ctx.Domains)+len(mons))
	for k, v := range g.Ctx.Domains {
		domains[k] = v
	}
	for _, m := range mons {
		if _, dup := domains[m.Var]; dup {
			return nil, fmt.Errorf("monitor variable %q collides with a system variable", m.Var)
		}
		domains[m.Var] = m.Domain
	}

	// When the base graph was built under symmetry, the product inherits the
	// reduction: product states are canonicalized on their base part (monitor
	// values ride along unchanged), and every product edge records its real
	// successor. Monitors always evaluate on genuine base steps — the base
	// edge's real successor — never on representative-to-representative
	// pseudo-steps.
	pcanon := productCanon(g, mons)

	// Products are cached like base graphs, keyed by the base system's
	// description extended with the monitors' semantic descriptions. A
	// monitor without a Desc disables caching for this product.
	var desc string
	var resumeSnap *Snapshot
	if g.Sys.Cache != nil {
		if d, ok := productDesc(g.Sys, mons); ok {
			desc = d
			if snap := cacheLoad(g.Sys.Cache, meter, desc); snap != nil {
				return graphFromSnapshot(g.Sys, form.NewCtx(domains), meter, snap, pcanon), nil
			}
			if g.Sys.Resume {
				snap, lerr := g.Sys.Cache.LoadCheckpoint(desc)
				switch {
				case lerr != nil:
					meter.Note("cache-corrupt", fmt.Sprintf("product checkpoint unusable, cold build: %v", lerr))
				case snap != nil && !validSnapshot(snap, false):
					meter.Note("cache-corrupt", "product checkpoint fails validation, cold build")
				case snap != nil:
					resumeSnap = snap
					meter.Note("resume", fmt.Sprintf("product of %s: resuming from level %d (%d states)",
						g.Sys.Name, snap.Level, len(snap.States)))
				}
			}
		}
	}

	// Initial product states. A base init may admit no monitor values, and
	// all of them may: an empty product graph is a legal (vacuous) outcome,
	// unlike an empty base graph.
	var inits []*state.State
	if resumeSnap == nil {
		for _, bid := range g.Inits {
			base := g.States[bid]
			combos, err := monitorInitCombos(mons, base)
			if err != nil {
				return nil, err
			}
			for _, combo := range combos {
				inits = append(inits, base.WithAll(combo))
			}
		}
	}

	// The base id of a product state is recoverable from the state itself:
	// stripping the monitor variables yields the base state, which the base
	// graph's fingerprint index resolves. This replaces the baseOf side
	// table of the sequential implementation and keeps expansion stateless,
	// hence safe for concurrent workers.
	res, err := explore(exploreParams{
		op:        "ts.Product",
		workers:   g.Sys.Workers,
		limit:     g.Sys.maxStates(),
		limitName: "monitor product",
		meter:     meter,
		inits:     inits,
		expand: func(cur *state.State) ([]*state.State, error) {
			base := BaseState(cur, mons)
			bid := g.ID(base)
			if bid < 0 {
				return nil, fmt.Errorf("ts.Product: base state %s not in base graph", base)
			}
			var out []*state.State
			var expErr error
			g.ForEachSuccStep(bid, func(tbid int, real *state.State) bool {
				baseStep := state.Step{From: g.States[bid], To: real}
				combos, cerr := monitorStepCombos(mons, baseStep, cur)
				if cerr != nil {
					expErr = cerr
					return false
				}
				for _, combo := range combos {
					out = append(out, real.WithAll(combo))
				}
				return true
			})
			if expErr != nil {
				return nil, expErr
			}
			return out, nil
		},
		canon:        pcanon,
		resume:       resumeSnap,
		onCheckpoint: checkpointSaver(g.Sys.Cache, meter, desc),
	})
	if err != nil {
		return nil, err
	}
	if pcanon != nil && res.symCollapsed > 0 {
		obs.FromMeter(meter).AddReduction("ts.Product", obs.ReductionStats{SymCollapsed: res.symCollapsed})
	}
	prod := &Graph{
		Sys:        g.Sys,
		Ctx:        form.NewCtx(domains),
		States:     res.states,
		Inits:      res.inits,
		offsets:    res.offsets,
		targets:    res.targets,
		edgeStates: res.edgeStates,
		idx:        res.idx,
		meter:      meter,
		reduced:    g.reduced,
		canon:      pcanon,
	}
	cacheStore(g.Sys.Cache, meter, desc, prod)
	return prod, nil
}

// productCanon lifts the base graph's symmetry canonicalizer to product
// states: the base part is canonicalized, the monitor bindings ride along
// unchanged. Returns nil when the base graph has no canonicalizer. Like
// every canon function, it returns its argument pointer when the state is
// already canonical.
func productCanon(g *Graph, mons []*Monitor) func(*state.State) *state.State {
	if g.canon == nil {
		return nil
	}
	names := make([]string, len(mons))
	for i, m := range mons {
		names[i] = m.Var
	}
	return func(s *state.State) *state.State {
		base := s.Drop(names)
		c := g.canon(base)
		if c == base {
			return s
		}
		binds := make(map[string]value.Value, len(names))
		for _, n := range names {
			if v, ok := s.Get(n); ok {
				binds[n] = v
			}
		}
		return c.WithAll(binds)
	}
}

// BaseState strips monitor variables from a product state.
func BaseState(s *state.State, mons []*Monitor) *state.State {
	names := make([]string, len(mons))
	for i, m := range mons {
		names[i] = m.Var
	}
	return s.Drop(names)
}

func monitorInitCombos(mons []*Monitor, base *state.State) ([]map[string]value.Value, error) {
	combos := []map[string]value.Value{{}}
	for _, m := range mons {
		vals, err := m.Init(base)
		if err != nil {
			return nil, fmt.Errorf("monitor %s init on %s: %w", m.Var, base, err)
		}
		combos = extendCombos(combos, m.Var, vals)
		if len(combos) == 0 {
			return nil, nil
		}
	}
	return combos, nil
}

func monitorStepCombos(mons []*Monitor, st state.Step, cur *state.State) ([]map[string]value.Value, error) {
	combos := []map[string]value.Value{{}}
	for _, m := range mons {
		curVal, ok := cur.Get(m.Var)
		if !ok {
			return nil, fmt.Errorf("monitor %s: variable missing from product state %s", m.Var, cur)
		}
		vals, err := m.Step(st, curVal)
		if err != nil {
			return nil, fmt.Errorf("monitor %s step on %s: %w", m.Var, st, err)
		}
		combos = extendCombos(combos, m.Var, vals)
		if len(combos) == 0 {
			return nil, nil
		}
	}
	return combos, nil
}

func extendCombos(combos []map[string]value.Value, name string, vals []value.Value) []map[string]value.Value {
	if len(vals) == 0 {
		return nil
	}
	out := make([]map[string]value.Value, 0, len(combos)*len(vals))
	for _, c := range combos {
		for _, v := range vals {
			n := make(map[string]value.Value, len(c)+1)
			for k, vv := range c {
				n[k] = vv
			}
			n[name] = v
			out = append(out, n)
		}
	}
	return out
}

// monitorDesc renders the canonical description of a constructor-built
// monitor from its defining formulas, so equal semantics yield equal cache
// keys regardless of how the closures were assembled.
func monitorDesc(kind string, init form.Expr, squares []form.Expr, v form.Expr, strict bool) string {
	var sb strings.Builder
	sb.WriteString(kind)
	sb.WriteString("-monitor(init=")
	writeExpr(&sb, init)
	sb.WriteString(", squares=[")
	for i, sq := range squares {
		if i > 0 {
			sb.WriteString("; ")
		}
		writeExpr(&sb, sq)
	}
	sb.WriteString("]")
	if v != nil {
		sb.WriteString(", v=")
		writeExpr(&sb, v)
	}
	if strict {
		sb.WriteString(", strict")
	}
	sb.WriteString(")")
	return sb.String()
}

// SafetyMonitor builds a two-state monitor tracking whether the safety
// formula with initial predicate init and step actions boxes (each already
// in [A]_v form) has held so far: the monitor value is TRUE while the
// prefix satisfies the formula and FALSE forever after. Both transitions
// out of TRUE are offered when the step satisfies the boxes, modelling the
// nondeterministic "die early" choice needed for +v (see PlusMonitor).
//
// If strict is true the monitor only dies when the safety formula is
// actually violated (no early death) — the right semantics for tracking
// closure death indices.
func SafetyMonitor(varName string, init form.Expr, squares []form.Expr, strict bool) *Monitor {
	// The squares are evaluated once per product edge per monitor value;
	// lazily compiled predicates (layout learned from the first step) keep
	// that hot path positional and allocation-free.
	sqPreds := make([]form.CompiledPred, len(squares))
	for i, sq := range squares {
		sqPreds[i] = form.LazyPred(sq)
	}
	var initPred form.CompiledPred
	if init != nil {
		initPred = form.LazyPred(init)
	}
	return &Monitor{
		Var:    varName,
		Domain: value.Bools(),
		Desc:   monitorDesc("safety", init, squares, nil, strict),
		Init: func(s *state.State) ([]value.Value, error) {
			ok := true
			if initPred != nil {
				var err error
				ok, err = initPred(state.Step{From: s})
				if err != nil {
					return nil, err
				}
			}
			if ok {
				return []value.Value{value.True}, nil
			}
			return []value.Value{value.False}, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			alive, _ := cur.AsBool()
			if !alive {
				return []value.Value{value.False}, nil
			}
			ok := true
			for _, sq := range sqPreds {
				good, err := sq(st)
				if err != nil {
					return nil, err
				}
				if !good {
					ok = false
					break
				}
			}
			if ok {
				if strict {
					return []value.Value{value.True}, nil
				}
				return []value.Value{value.True, value.False}, nil
			}
			return []value.Value{value.False}, nil
		},
	}
}

// PlusMonitor builds the monitor for C(E) +v (§4.1): while TRUE, the
// E-safety conjuncts must hold on every step; the monitor may drop to FALSE
// at any time (or start FALSE), after which the state function v must never
// change. Edges violating the frozen-v requirement in the FALSE state are
// pruned from the product.
func PlusMonitor(varName string, init form.Expr, squares []form.Expr, v form.Expr) *Monitor {
	unchanged := form.LazyPred(form.UnchangedExpr(v))
	sqPreds := make([]form.CompiledPred, len(squares))
	for i, sq := range squares {
		sqPreds[i] = form.LazyPred(sq)
	}
	var initPred form.CompiledPred
	if init != nil {
		initPred = form.LazyPred(init)
	}
	return &Monitor{
		Var:    varName,
		Domain: value.Bools(),
		Desc:   monitorDesc("plus", init, squares, v, false),
		Init: func(s *state.State) ([]value.Value, error) {
			ok := true
			if initPred != nil {
				var err error
				ok, err = initPred(state.Step{From: s})
				if err != nil {
					return nil, err
				}
			}
			if ok {
				// May start alive, or immediately frozen (n = 0).
				return []value.Value{value.True, value.False}, nil
			}
			return []value.Value{value.False}, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			alive, _ := cur.AsBool()
			if !alive {
				frozen, err := unchanged(st)
				if err != nil {
					return nil, err
				}
				if frozen {
					return []value.Value{value.False}, nil
				}
				return nil, nil // v changed after freezing: edge disallowed
			}
			ok := true
			for _, sq := range sqPreds {
				good, err := sq(st)
				if err != nil {
					return nil, err
				}
				if !good {
					ok = false
					break
				}
			}
			if ok {
				// Stay alive, or die with freezing starting at the target
				// state (the dying step itself may change v).
				return []value.Value{value.True, value.False}, nil
			}
			// E violated on this step: freezing starts at the target.
			return []value.Value{value.False}, nil
		},
	}
}
