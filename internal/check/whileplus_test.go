package check

import (
	"fmt"
	"math/rand"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// openTrial is a random open system: the graph of an implementation that
// owns y and reads x, which its environment sets freely, with an
// assumption E on x and a guarantee M on y whose internal h, if any, the
// mapping discharges.
type openTrial struct {
	sys     *ts.System
	env, m  *spec.Component
	mapping map[string]form.Expr
}

// randomOpen draws an open trial over x, y, h ∈ 0..1. The implementation,
// E and M may each be fair (in half the trials when they have actions); M
// has an internal h in a third; E and M each lack an initial predicate in
// a quarter; and in a third M allows every step of the implementation.
func randomOpen(r *rand.Rand) openTrial {
	lit := func() form.Expr { return form.IntC(int64(r.Intn(2))) }
	is := func(v string) form.Expr { return form.Eq(form.Var(v), lit()) }
	pick := func(vs ...string) string { return vs[r.Intn(len(vs))] }
	// actions returns n random guarded actions setting out (and h', when
	// withH) and reading the variables in reads.
	actions := func(n int, out string, withH bool, reads ...string) []spec.Action {
		as := make([]spec.Action, n)
		for i := range as {
			def := form.And(is(pick(reads...)), form.Eq(form.PrimedVar(out), lit()))
			if withH {
				def = form.And(def, form.Eq(form.PrimedVar("h"), lit()))
			}
			as[i] = spec.Action{Name: fmt.Sprintf("%s%d", out, i), Def: def}
		}
		return as
	}
	fairness := func(as []spec.Action) []spec.Fairness {
		if len(as) == 0 || r.Intn(2) == 0 {
			return nil
		}
		return []spec.Fairness{{Kind: form.FairKind(1 + r.Intn(2)), Action: as[r.Intn(len(as))].Def}}
	}
	init := func(vs ...string) form.Expr {
		if r.Intn(4) == 0 {
			return nil
		}
		cs := make([]form.Expr, len(vs))
		for i, v := range vs {
			cs[i] = is(v)
		}
		return form.And(cs...)
	}

	impl := &spec.Component{
		Name:    "impl",
		Inputs:  []string{"x"},
		Outputs: []string{"y"},
		Init:    is("y"),
		Actions: actions(1+r.Intn(3), "y", false, "x", "y"),
	}
	impl.Fairness = fairness(impl.Actions)
	env := &spec.Component{
		Name:    "E",
		Inputs:  []string{"y"},
		Outputs: []string{"x"},
		Init:    init("x"),
		Actions: actions(r.Intn(3), "x", false, "x", "y"),
	}
	env.Fairness = fairness(env.Actions)
	m := &spec.Component{Name: "M", Inputs: []string{"x"}, Outputs: []string{"y"}}
	var mapping map[string]form.Expr
	if r.Intn(3) == 0 {
		m.Internals = []string{"h"}
		m.Init = init("y", "h")
		m.Actions = actions(1+r.Intn(3), "y", true, "x", "y", "h")
		mapping = map[string]form.Expr{"h": form.Var(pick("x", "y"))}
	} else {
		m.Init = init("y")
		m.Actions = actions(1+r.Intn(3), "y", false, "x", "y")
		if r.Intn(2) == 0 {
			// M allows every step of the implementation, and more.
			m.Init, m.Actions = nil, append(m.Actions, impl.Actions...)
		}
	}
	m.Fairness = fairness(m.Actions)
	bit := value.Ints(0, 1)
	return openTrial{
		sys: &ts.System{
			Name:       "open",
			Components: []*spec.Component{impl},
			Domains:    map[string][]value.Value{"x": bit, "y": bit, "h": bit},
		},
		env: env, m: m, mapping: mapping,
	}
}

// dropPlus projects a product behavior off the +v monitor's variable.
func dropPlus(b []*state.State) []*state.State {
	out := make([]*state.State, len(b))
	for i, s := range b {
		out[i] = s.Drop([]string{ts.PlusVar})
	}
	return out
}

// TestRandomWhilePlusAgreesWithInterpreter holds WhilePlus to the formula
// interpreter on random open systems: every counterexample, projected off
// the monitor variable, is a behavior of the graph that falsifies
// E ⊳ M̄ (a safety trace extended by stuttering, a liveness lasso that
// is also fair to the graph and to E), and whenever WhilePlus says HOLDS,
// every bounded fair lasso of the graph satisfies E ⊳ M̄.
func TestRandomWhilePlusAgreesWithInterpreter(t *testing.T) {
	r := newRand(t, 39)
	var held, safetyVio, liveVio int
	for trial := 0; trial < 1000; trial++ {
		tr := randomOpen(r)
		g, err := tr.sys.Build()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mbar := tr.m.InnerFormula()
		if tr.mapping != nil {
			mbar = mbar.Subst(tr.mapping)
		}
		target := form.WhilePlus(tr.env.Formula(), mbar)
		fairFs := fairnessFormulas(tr.sys)
		// genuine returns an error unless l is a behavior of g that
		// falsifies target.
		genuine := func(l *state.Lasso) error {
			for i := 0; i < l.Horizon(); i++ {
				from, to := g.ID(l.At(i)), g.ID(l.At(i+1))
				if from < 0 || to < 0 || !hasEdge(g, from, to) {
					return fmt.Errorf("step %d is not a graph edge", i)
				}
			}
			if ok, err := target.Eval(g.Ctx, l); err != nil || ok {
				return fmt.Errorf("%s does not fail (err %v)", target, err)
			}
			return nil
		}
		res, err := WhilePlus(g, tr.env, tr.m, tr.mapping)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		switch {
		case !res.Safety.Holds:
			safetyVio++
			b := dropPlus(res.Safety.Trace)
			l := &state.Lasso{Prefix: b[:len(b)-1], Cycle: b[len(b)-1:]}
			if err := genuine(l); err != nil {
				t.Fatalf("trial %d: spurious safety counterexample: %v\n%s", trial, err, l)
			}
		case res.Liveness != nil && !res.Liveness.Holds:
			liveVio++
			cex := res.Liveness.Counterexample
			l := &state.Lasso{Prefix: dropPlus(cex.Prefix), Cycle: dropPlus(cex.Cycle)}
			if err := genuine(l); err != nil {
				t.Fatalf("trial %d: spurious liveness counterexample: %v\n%s", trial, err, l)
			}
			for _, ff := range append(fairFs, tr.env.FairnessFormula()) {
				if ok, err := ff.Eval(g.Ctx, l); err != nil || !ok {
					t.Fatalf("trial %d: unfair liveness counterexample: %s fails (err %v) on\n%s", trial, ff, err, l)
				}
			}
		default:
			held++
			GraphLassos(g, 2, 2, func(l *state.Lasso) bool {
				for _, ff := range fairFs {
					if ok, err := ff.Eval(g.Ctx, l); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					} else if !ok {
						return true // unfair behavior: exempt
					}
				}
				if ok, err := target.Eval(g.Ctx, l); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				} else if !ok {
					t.Fatalf("trial %d: WhilePlus holds but a fair lasso violates %s:\n%s", trial, target, l)
				}
				return true
			})
		}
	}
	t.Logf("%d HOLDS, %d safety VIOLATED, %d liveness VIOLATED", held, safetyVio, liveVio)
	if held == 0 || safetyVio == 0 || liveVio == 0 {
		t.Fatalf("degenerate sampling: %d holds, %d safety and %d liveness violations — adjust generators",
			held, safetyVio, liveVio)
	}
}

// TestNilInitTarget: a nil Init means TRUE, for the target of Component
// and for both sides of WhilePlus.
func TestNilInitTarget(t *testing.T) {
	sys := &ts.System{
		Name: "free",
		Components: []*spec.Component{{
			Name:    "toggle",
			Inputs:  []string{"x"},
			Outputs: []string{"y"},
			Actions: []spec.Action{{Name: "Flip", Def: form.Eq(form.PrimedVar("y"), form.Sub(form.IntC(1), form.Var("y")))}},
		}},
		Domains: map[string][]value.Value{"x": value.Bits(), "y": value.Bits()},
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	anything := &spec.Component{Name: "M", Inputs: []string{"x"}, Outputs: []string{"y"},
		Actions: []spec.Action{{Name: "Any", Def: form.TrueE}}}
	res, err := Component(g, anything, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() {
		t.Errorf("Component with nil Init:\n%s", res)
	}
	env := &spec.Component{Name: "E", Outputs: []string{"x"}}
	if res, err = WhilePlus(g, env, anything, nil); err != nil {
		t.Fatal(err)
	} else if !res.Holds() {
		t.Errorf("WhilePlus with nil Inits:\n%s", res)
	}
	// y frozen fails on the first Flip, whatever E does.
	frozen := &spec.Component{Name: "M", Inputs: []string{"x"}, Outputs: []string{"y"}}
	if res, err = WhilePlus(g, env, frozen, nil); err != nil {
		t.Fatal(err)
	} else if res.Holds() {
		t.Error("WhilePlus with a frozen guarantee should fail on the first flip")
	}
}

// TestWhilePlusAssumesEnvFairness: E's own fairness is assumed. E sets x
// from 0 to 1 once, weakly fairly; the implementation sets y from 0 to 1
// once x = 1, weakly fairly; M promises that y becomes 1. The behavior in
// which x stays 0 and nothing happens is not a counterexample: E's WF
// fails on it, so E ⊳ M holds there.
func TestWhilePlusAssumesEnvFairness(t *testing.T) {
	is := func(v string, n int64) form.Expr { return form.Eq(form.Var(v), form.IntC(n)) }
	set := func(v string) form.Expr { return form.Eq(form.PrimedVar(v), form.IntC(1)) }
	setX := form.And(is("x", 0), set("x"))
	setY := form.And(is("x", 1), is("y", 0), set("y"))
	becomeY := form.And(is("y", 0), set("y"))
	impl := &spec.Component{
		Name: "impl", Inputs: []string{"x"}, Outputs: []string{"y"},
		Init:     is("y", 0),
		Actions:  []spec.Action{{Name: "SetY", Def: setY}},
		Fairness: []spec.Fairness{{Kind: form.Weak, Action: setY}},
	}
	env := &spec.Component{
		Name: "E", Inputs: []string{"y"}, Outputs: []string{"x"},
		Init:     is("x", 0),
		Actions:  []spec.Action{{Name: "SetX", Def: setX}},
		Fairness: []spec.Fairness{{Kind: form.Weak, Action: setX}},
	}
	m := &spec.Component{
		Name: "M", Inputs: []string{"x"}, Outputs: []string{"y"},
		Init:     is("y", 0),
		Actions:  []spec.Action{{Name: "BecomeY", Def: becomeY}},
		Fairness: []spec.Fairness{{Kind: form.Weak, Action: becomeY}},
	}
	sys := &ts.System{
		Name:       "open",
		Components: []*spec.Component{impl},
		Domains:    map[string][]value.Value{"x": value.Bits(), "y": value.Bits()},
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	idle := state.FromPairs("x", value.Int(0), "y", value.Int(0))
	lasso := &state.Lasso{Cycle: []*state.State{idle}}
	for _, fair := range []bool{true, false} {
		e := *env
		if !fair {
			e.Fairness = nil
		}
		res, err := WhilePlus(g, &e, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		holds, err := form.WhilePlus(e.Formula(), m.Formula()).Eval(g.Ctx, lasso)
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds() != fair || holds != fair {
			t.Errorf("E fair = %v: WhilePlus holds = %v and E -+> M on x = 0, y = 0 forever = %v, want both %v:\n%s",
				fair, res.Holds(), holds, fair, res)
		}
	}
}
