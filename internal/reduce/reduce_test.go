package reduce

import (
	"strings"
	"testing"

	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

func TestParseFlag(t *testing.T) {
	cases := []struct {
		in      string
		want    Options
		wantErr bool
	}{
		{"", Options{}, false},
		{"off", Options{}, false},
		{"sym", Options{Sym: true}, false},
		{" sym ", Options{Sym: true}, false},
		{"bogus", Options{}, true},
		{"por", Options{}, true},
		{"por,sym", Options{}, true},
		{"sym,sym", Options{}, true},
	}
	for _, c := range cases {
		got, err := ParseFlag(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseFlag(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err != nil && !strings.Contains(err.Error(), "off|sym") {
			t.Errorf("ParseFlag(%q) error %q does not name the valid modes", c.in, err)
		}
		if !c.wantErr && got != c.want {
			t.Errorf("ParseFlag(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestOptionsString(t *testing.T) {
	for _, s := range []string{"off", "sym"} {
		o, err := ParseFlag(s)
		if err != nil {
			t.Fatalf("ParseFlag(%q): %v", s, err)
		}
		if o.String() != s {
			t.Errorf("ParseFlag(%q).String() = %q", s, o.String())
		}
	}
}

func TestParseDisjointOnDisjointSteps(t *testing.T) {
	exprs := form.DisjointSteps([]string{"a1", "a2"}, []string{"b"})
	if len(exprs) != 1 {
		t.Fatalf("DisjointSteps emitted %d exprs, want 1", len(exprs))
	}
	sets, ok := ParseDisjoint(exprs[0])
	if !ok {
		t.Fatalf("ParseDisjoint failed on DisjointSteps output %s", exprs[0])
	}
	if got := disjointNormal(sets); got != "disjoint{a1,a2|a1,a2,b|b}" {
		t.Errorf("disjointNormal = %q", got)
	}
}

func TestParseDisjointRejectsOpaque(t *testing.T) {
	if _, ok := ParseDisjoint(form.Lt(form.Var("a"), form.IntC(5))); ok {
		t.Error("ParseDisjoint accepted a non-Disjoint constraint")
	}
}

func TestConstraintNormalRenameInvariant(t *testing.T) {
	// UNCHANGED⟨g1,g2⟩ vs UNCHANGED⟨g2,g1⟩ must normalize identically:
	// a block rename reorders DisjointSteps arguments.
	a := form.DisjointSteps([]string{"r1", "g1"}, []string{"r2", "g2"})[0]
	b := form.DisjointSteps([]string{"r2", "g2"}, []string{"r1", "g1"})[0]
	if constraintNormal(a) != constraintNormal(b) {
		t.Errorf("constraintNormal differs:\n%s\n%s", constraintNormal(a), constraintNormal(b))
	}
}

func valSym() *Symmetry {
	return &Symmetry{
		Values: value.Ints(0, 2),
		Vars:   []string{"i.val", "o.val", "q"},
	}
}

func TestCheckValueInvariantAccepts(t *testing.T) {
	sym := valSym()
	accept := []form.Expr{
		// Len launders symmetric content: queue-capacity guards are fine.
		form.Lt(form.Len(form.Var("q")), form.IntC(1)),
		// Scoped-to-scoped equality: π applies to both sides.
		form.Eq(form.Prime(form.Var("o.val")), form.Var("i.val")),
		// Scoped against a constant outside the orbit.
		form.Eq(form.Var("q"), form.Const(value.Empty)),
		// Arithmetic on unscoped variables only.
		form.Eq(form.Prime(form.Var("sig")), form.Sub(form.IntC(1), form.Var("sig"))),
		// Quantifier over the (closed) orbit; bound var becomes scoped.
		form.Exists("$v", value.Ints(0, 2),
			form.Eq(form.Prime(form.Var("i.val")), form.Var("$v"))),
		// Append of a scoped value onto a scoped sequence.
		form.Eq(form.Prime(form.Var("q")), form.AppendTo(form.Var("q"), form.Var("i.val"))),
	}
	for _, e := range accept {
		if err := sym.CheckValueInvariant(e); err != nil {
			t.Errorf("rejected invariant formula %s: %v", e, err)
		}
	}
}

func TestCheckValueInvariantRejects(t *testing.T) {
	sym := valSym()
	reject := []struct {
		name string
		e    form.Expr
	}{
		{"orders scoped value", form.Lt(form.Var("i.val"), form.IntC(1))},
		{"pins orbit literal", form.Eq(form.Prime(form.Var("o.val")), form.IntC(0))},
		{"orbit literal inside tuple const",
			form.Eq(form.Var("q"), form.Const(value.Tuple(value.Int(0))))},
		{"relates scoped to unscoped variable",
			form.Eq(form.Prime(form.Var("o.val")), form.Var("sig"))},
		{"arithmetic on scoped value",
			form.Eq(form.Prime(form.Var("o.val")), form.Add(form.Var("i.val"), form.IntC(1)))},
		{"quantifier over non-closed overlap",
			form.Exists("$v", []value.Value{value.Int(0)},
				form.Eq(form.Prime(form.Var("i.val")), form.Var("$v")))},
		{"quantifier body orders bound value",
			form.Exists("$v", value.Ints(0, 2),
				form.And(form.Eq(form.Prime(form.Var("i.val")), form.Var("$v")),
					form.Lt(form.Var("$v"), form.IntC(1))))},
	}
	for _, c := range reject {
		if err := sym.CheckValueInvariant(c.e); err == nil {
			t.Errorf("%s: accepted non-invariant formula %s", c.name, c.e)
		}
	}
}

func TestValidateValueDomains(t *testing.T) {
	sym := &Symmetry{Values: value.Ints(0, 1), Vars: []string{"x"}}
	if err := sym.validateValueDomains(map[string][]value.Value{"x": value.Ints(0, 2)}); err != nil {
		t.Errorf("closed domain rejected: %v", err)
	}
	if err := sym.validateValueDomains(map[string][]value.Value{"x": {value.Int(0)}}); err == nil {
		t.Error("non-closed domain {0} accepted under Values {0,1}")
	}
	// Tuple domains must be closed element-wise.
	seqs := value.Seqs(value.Ints(0, 1), 1)
	if err := sym.validateValueDomains(map[string][]value.Value{"x": seqs}); err != nil {
		t.Errorf("closed sequence domain rejected: %v", err)
	}
	open := []value.Value{value.Empty, value.Tuple(value.Int(0))}
	if err := sym.validateValueDomains(map[string][]value.Value{"x": open}); err == nil {
		t.Error("sequence domain missing ⟨1⟩ accepted under Values {0,1}")
	}
}

func canonFor(sym *Symmetry, sab *Sabotage) *Canonicalizer {
	cfg := &Config{Options: Options{Sym: true}, Symmetry: sym, Sabotage: sab}
	cz := cfg.Canonicalizer()
	if cz == nil {
		panic("nil canonicalizer for nontrivial symmetry")
	}
	return cz
}

func TestCanonValueOrbit(t *testing.T) {
	sym := valSym()
	cz := canonFor(sym, nil)
	// Two states in the same orbit: 0↔2 swap, inside a tuple and at an atom.
	s1 := state.New(map[string]value.Value{
		"i.val": value.Int(0),
		"o.val": value.Int(2),
		"q":     value.Tuple(value.Int(2), value.Int(0)),
		"sig":   value.Int(1),
	})
	s2 := state.New(map[string]value.Value{
		"i.val": value.Int(2),
		"o.val": value.Int(0),
		"q":     value.Tuple(value.Int(0), value.Int(2)),
		"sig":   value.Int(1),
	})
	c1, c2 := cz.Canon(s1), cz.Canon(s2)
	if !c1.Equal(c2) {
		t.Errorf("orbit mates canonicalize differently:\n%s\n%s", c1, c2)
	}
	if !cz.Canon(c1).Equal(c1) {
		t.Error("canon is not idempotent")
	}
	// Unscoped variables are untouched.
	if v, _ := c1.Get("sig"); !v.Equal(value.Int(1)) {
		t.Errorf("canon rewrote unscoped variable sig to %s", v)
	}
	// First-occurrence relabeling: scan order is sorted vars, so i.val
	// (first distinct value) becomes Values[0].
	if v, _ := c1.Get("i.val"); !v.Equal(value.Int(0)) {
		t.Errorf("canon i.val = %s, want 0", v)
	}
}

func TestCanonValueOrbitExhaustive(t *testing.T) {
	// Every permutation of {0,1,2} applied to a fixed state must reach the
	// same canonical representative.
	sym := valSym()
	cz := canonFor(sym, nil)
	var want *state.State
	for _, p := range permutations(3) {
		perm := func(v value.Value) value.Value {
			i, _ := v.AsInt()
			return value.Int(int64(p[i]))
		}
		s := state.New(map[string]value.Value{
			"i.val": perm(value.Int(1)),
			"o.val": perm(value.Int(1)),
			"q": value.Tuple(perm(value.Int(2)), perm(value.Int(0)),
				perm(value.Int(1))),
		})
		c := cz.Canon(s)
		if want == nil {
			want = c
		} else if !c.Equal(want) {
			t.Fatalf("permutation %v canonicalizes to %s, want %s", p, c, want)
		}
	}
}

func TestCanonBlocks(t *testing.T) {
	sym := &Symmetry{Blocks: [][]string{{"r1", "g1"}, {"r2", "g2"}}}
	cz := canonFor(sym, nil)
	s1 := state.New(map[string]value.Value{
		"r1": value.True, "g1": value.False,
		"r2": value.False, "g2": value.True,
	})
	s2 := state.New(map[string]value.Value{
		"r1": value.False, "g1": value.True,
		"r2": value.True, "g2": value.False,
	})
	c1, c2 := cz.Canon(s1), cz.Canon(s2)
	if !c1.Equal(c2) {
		t.Errorf("block-swapped states canonicalize differently:\n%s\n%s", c1, c2)
	}
	if !cz.Canon(c1).Equal(c1) {
		t.Error("block canon is not idempotent")
	}
	// A block-symmetric state is its own representative.
	sEq := state.New(map[string]value.Value{
		"r1": value.True, "g1": value.False,
		"r2": value.True, "g2": value.False,
	})
	if !cz.Canon(sEq).Equal(sEq) {
		t.Error("symmetric state not fixed by canon")
	}
}

func TestCanonSabotageSeams(t *testing.T) {
	sym := valSym()
	sound := canonFor(sym, nil)
	s1 := state.New(map[string]value.Value{
		"i.val": value.Int(0), "o.val": value.Int(1), "q": value.Empty,
	})
	s2 := state.New(map[string]value.Value{
		"i.val": value.Int(0), "o.val": value.Int(0), "q": value.Empty,
	})
	// Sound canon keeps distinct orbits distinct…
	if sound.Canon(s1).Equal(sound.Canon(s2)) {
		t.Fatal("sound canon merged states from different orbits")
	}
	// …collapse-values merges them (the unsoundness the mutant test needs).
	collapsed := canonFor(sym, &Sabotage{CollapseValues: true})
	if !collapsed.Canon(s1).Equal(collapsed.Canon(s2)) {
		t.Error("collapse-values sabotage failed to merge distinct orbits")
	}
	// skip-tuple-values leaves tuple contents unrelabeled, splitting an
	// orbit the sound canon merges.
	t1 := state.New(map[string]value.Value{
		"i.val": value.Int(1), "o.val": value.Int(1), "q": value.Tuple(value.Int(1)),
	})
	t2 := state.New(map[string]value.Value{
		"i.val": value.Int(2), "o.val": value.Int(2), "q": value.Tuple(value.Int(2)),
	})
	if !sound.Canon(t1).Equal(sound.Canon(t2)) {
		t.Fatal("sound canon failed to merge orbit mates")
	}
	skewed := canonFor(sym, &Sabotage{SkipTupleValues: true})
	if skewed.Canon(t1).Equal(skewed.Canon(t2)) {
		t.Error("skip-tuple-values sabotage failed to split the orbit")
	}
}

func replicaComponent(name, out string) *spec.Component {
	return &spec.Component{
		Name:    name,
		Outputs: []string{out},
		Init:    form.Eq(form.Var(out), form.IntC(0)),
		Actions: []spec.Action{{
			Name: "step",
			Def:  form.Eq(form.Prime(form.Var(out)), form.IntC(1)),
		}},
	}
}

func TestValidateBlocksReplicas(t *testing.T) {
	sym := &Symmetry{Blocks: [][]string{{"a"}, {"b"}}}
	comps := []*spec.Component{replicaComponent("A", "a"), replicaComponent("B", "b")}
	domains := map[string][]value.Value{"a": value.Ints(0, 1), "b": value.Ints(0, 1)}
	steps := []NamedExpr{{Name: "disj", E: form.DisjointSteps([]string{"a"}, []string{"b"})[0]}}
	if err := sym.Validate(comps, steps, nil, domains); err != nil {
		t.Errorf("replica components rejected: %v", err)
	}

	// Break the replication: B writes 2 where A writes 1.
	broken := []*spec.Component{replicaComponent("A", "a"), {
		Name:    "B",
		Outputs: []string{"b"},
		Init:    form.Eq(form.Var("b"), form.IntC(0)),
		Actions: []spec.Action{{
			Name: "step",
			Def:  form.Eq(form.Prime(form.Var("b")), form.IntC(2)),
		}},
	}}
	if err := sym.Validate(broken, steps, nil, domains); err == nil {
		t.Error("non-replica components accepted for block symmetry")
	}

	// Unequal domains.
	badDoms := map[string][]value.Value{"a": value.Ints(0, 1), "b": value.Ints(0, 2)}
	if err := sym.Validate(comps, steps, nil, badDoms); err == nil {
		t.Error("unequal block domains accepted")
	}
}

func TestValidateShapeErrors(t *testing.T) {
	bad := []*Symmetry{
		{Values: []value.Value{value.Int(0), value.Int(0)}, Vars: []string{"x"}},
		{Values: value.Ints(0, 1), Vars: []string{"x", "x"}},
		{Blocks: [][]string{{"a"}, {"b", "c"}}},
		{Blocks: [][]string{{"a"}, {"a"}}},
	}
	doms := map[string][]value.Value{
		"x": value.Ints(0, 1), "a": value.Ints(0, 1),
		"b": value.Ints(0, 1), "c": value.Ints(0, 1),
	}
	for i, sym := range bad {
		if err := sym.Validate(nil, nil, nil, doms); err == nil {
			t.Errorf("case %d: malformed declaration accepted", i)
		}
	}
}

func TestCheckBlockInvariant(t *testing.T) {
	sym := &Symmetry{Blocks: [][]string{{"g1"}, {"g2"}}}
	symmetric := form.Not(form.And(form.Var("g1"), form.Var("g2")))
	if err := sym.CheckBlockInvariant(symmetric); err != nil {
		t.Errorf("symmetric mutex formula rejected: %v", err)
	}
	asymmetric := form.Var("g1")
	if err := sym.CheckBlockInvariant(asymmetric); err == nil {
		t.Error("replica-distinguishing formula accepted")
	}
}

func TestConfigDesc(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Desc() != "" {
		t.Error("nil config desc nonempty")
	}
	if (&Config{}).Desc() != "" {
		t.Error("inactive config desc nonempty")
	}
	if (&Config{Options: Options{Sym: true}}).Desc() != "" {
		t.Error("sym config without a group has a desc")
	}
	full := &Config{Options: Options{Sym: true}, Symmetry: valSym()}
	if d, want := full.Desc(), "reduce:\n  modes=sym\n  sym-values=[0,1,2]"; !strings.HasPrefix(d, want) {
		t.Errorf("desc = %q, want prefix %q", d, want)
	}
	sab := &Config{Options: Options{Sym: true}, Symmetry: valSym(),
		Sabotage: &Sabotage{SkipTupleValues: true, CollapseValues: true}}
	if !strings.Contains(sab.Desc(), "sabotage=collapse-values,skip-tuple-values") {
		t.Errorf("sabotage marker missing from desc:\n%s", sab.Desc())
	}
	// Sabotaged and sound configs must never share a cache key.
	soundCfg := &Config{Options: Options{Sym: true}, Symmetry: valSym()}
	if sab.Desc() == soundCfg.Desc() {
		t.Error("sabotaged desc equals sound desc")
	}
}
