package ts

import (
	"fmt"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/state"
	"opentla/internal/value"
)

// refProduct is the map-based monitor product Product replaced: it strips
// the monitor variables with Drop to find a product state's base state,
// enumerates monitor combinations as maps, and builds each product state
// with WithAll. It is kept, without the cache, as the reference the
// positional product must build byte-identical graphs against.
func refProduct(g *Graph, mons []*Monitor) (*Graph, error) {
	domains := make(map[string][]value.Value, len(g.Ctx.Domains)+len(mons))
	for k, v := range g.Ctx.Domains {
		domains[k] = v
	}
	for _, m := range mons {
		domains[m.Var] = m.Domain
	}
	pcanon := refProductCanon(g, mons)
	var inits []*state.State
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
	res, err := explore(exploreParams{
		op:        "ts.refProduct",
		workers:   g.Sys.Workers,
		limit:     maxGraphStates,
		limitName: "monitor product",
		meter:     engine.NoLimit(),
		inits:     inits,
		newExpand: func() expandFunc {
			return func(cur *state.State, emit func(*state.State) error) error {
				base := BaseState(cur, mons)
				bid := g.ID(base)
				if bid < 0 {
					return fmt.Errorf("ts.refProduct: base state %s not in base graph", base)
				}
				var expErr error
				g.ForEachSuccEdge(bid, func(k, _ int) bool {
					real := g.EdgeReal(k)
					baseStep := state.Step{From: g.States[bid], To: real}
					combos, cerr := monitorStepCombos(mons, baseStep, cur)
					if cerr != nil {
						expErr = cerr
						return false
					}
					for _, combo := range combos {
						if expErr = emit(real.WithAll(combo)); expErr != nil {
							return false
						}
					}
					return true
				})
				return expErr
			}
		},
		canon: pcanon,
	})
	if err != nil {
		return nil, err
	}
	return &Graph{
		Sys:        g.Sys,
		Ctx:        form.NewCtx(domains),
		States:     res.states,
		Inits:      res.inits,
		offsets:    res.offsets,
		targets:    res.targets,
		edgeStates: res.edgeStates,
		table:      res.table,
		cz:         g.cz,
	}, nil
}

// refProductCanon canonicalizes a product state's base part, dropping and
// re-adding the monitor bindings by name.
func refProductCanon(g *Graph, mons []*Monitor) func(*state.State) *state.State {
	if g.cz == nil {
		return nil
	}
	names := make([]string, len(mons))
	for i, m := range mons {
		names[i] = m.Var
	}
	return func(s *state.State) *state.State {
		base := s.Drop(names)
		c := g.cz.Canon(base)
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

// diffGraphs returns the first difference between got and want, compared
// as built graphs: states (equal and with equal fingerprints), initial
// ids, CSR offsets and targets, and each edge's real successor.
func diffGraphs(got, want *Graph) error {
	if len(got.States) != len(want.States) {
		return fmt.Errorf("%d states, want %d", len(got.States), len(want.States))
	}
	for i := range got.States {
		if !got.States[i].Equal(want.States[i]) || got.States[i].Fingerprint() != want.States[i].Fingerprint() {
			return fmt.Errorf("state %d is %s, want %s", i, got.States[i], want.States[i])
		}
	}
	if fmt.Sprint(got.Inits) != fmt.Sprint(want.Inits) {
		return fmt.Errorf("inits %v, want %v", got.Inits, want.Inits)
	}
	if fmt.Sprint(got.offsets) != fmt.Sprint(want.offsets) {
		return fmt.Errorf("CSR offsets differ")
	}
	if fmt.Sprint(got.targets) != fmt.Sprint(want.targets) {
		return fmt.Errorf("CSR targets differ")
	}
	if len(got.edgeStates) != len(want.edgeStates) {
		return fmt.Errorf("%d edge states, want %d", len(got.edgeStates), len(want.edgeStates))
	}
	for k := range got.edgeStates {
		g, w := got.edgeStates[k], want.edgeStates[k]
		if (g == nil) != (w == nil) || g != nil && (!g.Equal(w) || g.Fingerprint() != w.Fingerprint()) {
			return fmt.Errorf("edge %d: real successor %v, want %v", k, g, w)
		}
	}
	return nil
}
