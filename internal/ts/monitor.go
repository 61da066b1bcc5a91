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
	//
	// The slices Init and Step return are read-only: Product never writes
	// them, so a monitor may return the same slice from every call.
	Step func(st state.Step, cur value.Value) ([]value.Value, error)
}

// The results of the constructor-built monitors, shared by every call (see
// Monitor: results are read-only).
var (
	onlyTrue    = []value.Value{value.True}
	onlyFalse   = []value.Value{value.False}
	trueOrFalse = []value.Value{value.True, value.False}
)

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

	// Product states widen base states by the monitor variables, one row
	// scatter each (see state.Extension); the monitors' domain values are
	// resolved to codes once, here.
	x, err := productExtension(g, mons)
	if err != nil {
		return nil, err
	}

	// Products are cached like base graphs, keyed by the base system's
	// description extended with the monitors' semantic descriptions. A
	// monitor without a Desc disables caching for this product.
	var desc string
	var resumeSnap *Snapshot
	if g.Sys.Cache != nil {
		if d, ok := productDesc(g.Sys, mons); ok {
			desc = d
			if snap := cacheLoad(g.Sys.Cache, meter, desc); snap != nil {
				return graphFromSnapshot(g.Sys, form.NewCtx(domains), meter, snap, g.canon), nil
			}
			if g.Sys.Resume {
				resumeSnap = loadCheckpoint(g.Sys.Cache, meter, desc, "product of "+g.Sys.Name)
			}
		}
	}

	// Initial product states. A base init may admit no monitor values, and
	// all of them may: an empty product graph is a legal (vacuous) outcome,
	// unlike an empty base graph.
	var inits []*state.State
	if resumeSnap == nil {
		c := newCombos(x, len(mons))
		for _, bid := range g.Inits {
			base := g.States[bid]
			admitted := true
			for i, m := range mons {
				vals, err := m.Init(base)
				if err != nil {
					return nil, fmt.Errorf("monitor %s init on %s: %w", m.Var, base, err)
				}
				if len(vals) == 0 {
					admitted = false
					break
				}
				c.vals[i] = vals
			}
			if admitted {
				if inits, err = c.extend(inits, base); err != nil {
					return nil, err
				}
			}
		}
	}

	// The base id of a product state is recoverable from the state itself:
	// projecting away the monitor variables yields the base state, which the
	// base graph's state table resolves. This keeps expansion
	// stateless, hence safe for concurrent workers.
	res, err := explore(exploreParams{
		op:        "ts.Product",
		workers:   g.Sys.Workers,
		limit:     g.Sys.maxStates(),
		limitName: "monitor product",
		meter:     meter,
		inits:     inits,
		expand: func(cur *state.State) ([]*state.State, error) {
			var base state.State
			if err := x.Project(cur, &base); err != nil {
				return nil, fmt.Errorf("ts.Product: %w", err)
			}
			bid := g.ID(&base)
			if bid < 0 {
				return nil, fmt.Errorf("ts.Product: base state %s not in base graph", &base)
			}
			from := g.States[bid]
			curVals := make([]value.Value, len(mons))
			for i := range mons {
				curVals[i] = cur.At(x.Pos(i))
			}
			c := newCombos(x, len(mons))
			var out []*state.State
			var expErr error
			g.ForEachSuccStep(bid, func(_ int, real *state.State) bool {
				st := state.Step{From: from, To: real}
				for i, m := range mons {
					vals, err := m.Step(st, curVals[i])
					if err != nil {
						expErr = fmt.Errorf("monitor %s step on %s: %w", m.Var, st, err)
						return false
					}
					if len(vals) == 0 {
						return true // some monitor disallows the edge
					}
					c.vals[i] = vals
				}
				out, expErr = c.extend(out, real)
				return expErr == nil
			})
			if expErr != nil {
				return nil, expErr
			}
			return out, nil
		},
		// When the base graph was built under symmetry, the product inherits
		// the reduction through the base graph's canonicalizer itself: a
		// scoped variable has a system domain and a monitor variable may
		// not, so it relabels a product state's base part and leaves the
		// monitor bindings as they are. Every product edge records its real
		// successor, so monitors evaluate on genuine base steps, never on
		// representative-to-representative pseudo-steps.
		canon:        g.canon,
		resume:       resumeSnap,
		onCheckpoint: checkpointSaver(g.Sys.Cache, meter, desc),
	})
	if err != nil {
		return nil, err
	}
	if g.canon != nil && res.symCollapsed > 0 {
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
		table:      res.table,
		meter:      meter,
		reduced:    g.reduced,
		canon:      g.canon,
	}
	cacheStore(g.Sys.Cache, meter, desc, prod)
	return prod, nil
}

// productExtension returns the extension of the base graph's layout by the
// monitor variables, in monitor order, with each monitor's domain resolved.
func productExtension(g *Graph, mons []*Monitor) (*state.Extension, error) {
	lay := state.LayoutOf(g.Sys.Vars())
	if len(g.States) > 0 {
		lay = g.States[0].Layout()
	}
	names := make([]string, len(mons))
	doms := make([][]value.Value, len(mons))
	for i, m := range mons {
		names[i], doms[i] = m.Var, m.Domain
	}
	x, err := state.NewExtension(lay, names, doms)
	if err != nil {
		return nil, fmt.Errorf("ts.Product: %w", err)
	}
	return x, nil
}

// combos enumerates the monitor-value combinations of one base state or
// step as index vectors over each monitor's value slice, the first monitor
// varying slowest, and widens the base state by each.
type combos struct {
	x    *state.Extension
	vals [][]value.Value   // vals[i]: the values monitor i allows
	idx  []int             // the current combination
	ups  []state.PosUpdate // ups[i]: monitor i's update for vals[i][idx[i]]
}

func newCombos(x *state.Extension, n int) *combos {
	return &combos{x: x, vals: make([][]value.Value, n), idx: make([]int, n), ups: make([]state.PosUpdate, n)}
}

// extend appends base widened by every combination of c.vals to out.
func (c *combos) extend(out []*state.State, base *state.State) ([]*state.State, error) {
	for i := range c.idx {
		c.idx[i] = 0
		c.ups[i] = c.x.Update(i, c.vals[i][0])
	}
	for {
		t, err := c.x.Extend(base, c.ups)
		if err != nil {
			return nil, fmt.Errorf("ts.Product: %w", err)
		}
		out = append(out, t)
		i := len(c.idx) - 1
		for ; i >= 0; i-- {
			c.idx[i]++
			if c.idx[i] < len(c.vals[i]) {
				c.ups[i] = c.x.Update(i, c.vals[i][c.idx[i]])
				break
			}
			c.idx[i] = 0
			c.ups[i] = c.x.Update(i, c.vals[i][0])
		}
		if i < 0 {
			return out, nil
		}
	}
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
				return onlyTrue, nil
			}
			return onlyFalse, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			alive, _ := cur.AsBool()
			if !alive {
				return onlyFalse, nil
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
					return onlyTrue, nil
				}
				return trueOrFalse, nil
			}
			return onlyFalse, nil
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
				return trueOrFalse, nil
			}
			return onlyFalse, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			alive, _ := cur.AsBool()
			if !alive {
				frozen, err := unchanged(st)
				if err != nil {
					return nil, err
				}
				if frozen {
					return onlyFalse, nil
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
				return trueOrFalse, nil
			}
			// E violated on this step: freezing starts at the target.
			return onlyFalse, nil
		},
	}
}
