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
// *engine.EngineError with the current product state's key.
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
	if g.Sys.Cache != nil {
		desc, _ = productDesc(g.Sys, mons)
	}
	p, res, err := g.Sys.cachedBuild(form.NewCtx(domains), desc, "product of "+g.Sys.Name, exploreParams{
		op:        "ts.Product",
		workers:   g.Sys.Workers,
		limit:     maxGraphStates,
		limitName: "monitor product",
		meter:     meter,
		// When the base graph was built under symmetry, the product inherits
		// the reduction through the base graph's canonicalizer itself: a
		// scoped variable has a system domain and a monitor variable may
		// not, so it relabels a product state's base part and leaves the
		// monitor bindings as they are. Every product edge records its real
		// successor, so monitors evaluate on genuine base steps, never on
		// representative-to-representative pseudo-steps.
		canon: g.canon,
	}, func(seed bool) (inits []*state.State, _ func() expandFunc, err error) {
		if seed {
			inits, err = productInits(g, mons, x)
		}
		return inits, productExpand(g, mons, x), err
	})
	if res != nil && g.canon != nil && res.symCollapsed > 0 {
		obs.FromMeter(meter).AddReduction("ts.Product", obs.ReductionStats{SymCollapsed: res.symCollapsed})
	}
	return p, err
}

// productInits returns the initial product states: each initial state of
// g widened by every combination of the values the monitors admit on it.
// A base init may admit no monitor values, and all of them may: an empty
// product graph is a legal (vacuous) outcome, unlike an empty base graph.
func productInits(g *Graph, mons []*Monitor, x *state.Extension) ([]*state.State, error) {
	var inits []*state.State
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
			err := c.each(base, func(t *state.State) error {
				inits = append(inits, t.Clone())
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return inits, nil
}

// productExpand returns the expander factory of the product of g with mons,
// whose states widen g's through x. The base id of a product state is
// recoverable from the state itself: projecting away the monitor variables
// yields the base state, which the base graph's state table resolves. So
// an expander shares nothing with another but g, and keeps the projected
// base state, the current monitor values and the combination scratch with
// its widened row across the states it expands.
func productExpand(g *Graph, mons []*Monitor, x *state.Extension) func() expandFunc {
	return func() expandFunc {
		pe := &productExpander{g: g, mons: mons, curVals: make([]value.Value, len(mons)), c: newCombos(x, len(mons))}
		pe.visit = pe.step
		return pe.expand
	}
}

// productExpander is one worker's product expander (see productExpand).
// from, emit and err hold the current expansion for step, which visit
// binds once so that ForEachSuccStep is handed no new closure per state.
type productExpander struct {
	g       *Graph
	mons    []*Monitor
	base    state.State   // cur's base part
	curVals []value.Value // cur's monitor values, in monitor order
	c       *combos
	visit   func(to int, real *state.State) bool

	from *state.State
	emit func(*state.State) error
	err  error
}

func (pe *productExpander) expand(cur *state.State, emit func(*state.State) error) error {
	x := pe.c.x
	if err := x.Project(cur, &pe.base); err != nil {
		return fmt.Errorf("ts.Product: %w", err)
	}
	bid := pe.g.ID(&pe.base)
	if bid < 0 {
		return fmt.Errorf("ts.Product: base state %s not in base graph", &pe.base)
	}
	for i := range pe.mons {
		pe.curVals[i] = cur.At(x.Pos(i))
	}
	pe.from, pe.emit, pe.err = pe.g.States[bid], emit, nil
	pe.g.ForEachSuccStep(bid, pe.visit)
	return pe.err
}

// step emits the product successors over one real base step from pe.from,
// one per combination of the values the monitors allow on it.
func (pe *productExpander) step(_ int, real *state.State) bool {
	st := state.Step{From: pe.from, To: real}
	for i, m := range pe.mons {
		vals, err := m.Step(st, pe.curVals[i])
		if err != nil {
			pe.err = fmt.Errorf("monitor %s step on %s: %w", m.Var, st, err)
			return false
		}
		if len(vals) == 0 {
			return true // some monitor disallows the edge
		}
		pe.c.vals[i] = vals
	}
	pe.err = pe.c.each(real, pe.emit)
	return pe.err == nil
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
	wide state.State       // the scratch every widened state is built in
}

func newCombos(x *state.Extension, n int) *combos {
	return &combos{x: x, vals: make([][]value.Value, n), idx: make([]int, n), ups: make([]state.PosUpdate, n)}
}

// each widens base by every combination of c.vals, in turn, into c's
// scratch state and hands it to emit, which must not keep it (the
// explorer's store copies the states it adds). An error from emit stops
// the enumeration and is returned as it is.
func (c *combos) each(base *state.State, emit func(*state.State) error) error {
	for i := range c.idx {
		c.idx[i] = 0
		c.ups[i] = c.x.Update(i, c.vals[i][0])
	}
	for {
		if err := c.x.ExtendInto(base, c.ups, &c.wide); err != nil {
			return fmt.Errorf("ts.Product: %w", err)
		}
		if err := emit(&c.wide); err != nil {
			return err
		}
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
			return nil
		}
	}
}

// monitorDesc renders the canonical description of a constructor-built
// monitor from its defining formulas, so equal semantics yield equal cache
// keys regardless of how the closures were assembled. A safety monitor's
// description ends in ", strict" so that the keys of cached products built
// with it stay valid.
func monitorDesc(kind string, init form.Expr, squares []form.Expr, v form.Expr) string {
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
	if kind == "safety" {
		sb.WriteString(", strict")
	}
	sb.WriteString(")")
	return sb.String()
}

// SafetyMonitor builds a two-state monitor tracking whether the safety
// formula with initial predicate init and step actions squares (each
// already in [A]_v form) has held so far: the monitor value is TRUE while
// the prefix satisfies the formula and FALSE forever after. The monitor is
// deterministic: it dies exactly when the formula is violated, never
// early — the semantics for tracking closure death indices. (PlusMonitor is
// the one that may die early.)
func SafetyMonitor(varName string, init form.Expr, squares []form.Expr) *Monitor {
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
		Desc:   monitorDesc("safety", init, squares, nil),
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
				return onlyTrue, nil
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
		Desc:   monitorDesc("plus", init, squares, v),
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
