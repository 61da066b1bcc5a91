package form

import (
	"math/rand"
	"slices"
	"testing"

	"opentla/internal/state"
	"opentla/internal/value"
)

// sameSets reports whether got lists exactly the variable sets want, in
// order.
func sameSets(got []map[string]bool, want ...[]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i, names := range want {
		set := make(map[string]bool, len(names))
		for _, n := range names {
			set[n] = true
		}
		if len(got[i]) != len(set) {
			return false
		}
		for n := range set {
			if !got[i][n] {
				return false
			}
		}
	}
	return true
}

// checkDisjointSteps asserts that ParseDisjoint reads the one constraint
// DisjointSteps(a, b) emits as freezing a, b and both together:
// [Unchanged(a) ∨ Unchanged(b)]_⟨a,b⟩ desugars to three disjuncts, the
// square's stutter leaf freezing the full tuple.
func checkDisjointSteps(t *testing.T, a, b []string) {
	t.Helper()
	steps := DisjointSteps(a, b)
	if len(steps) != 1 {
		t.Fatalf("DisjointSteps(%v, %v) emitted %d constraints, want 1", a, b, len(steps))
	}
	sets, ok := ParseDisjoint(steps[0])
	if !ok {
		t.Fatalf("DisjointSteps output not recognized: %v", steps[0])
	}
	if both := append(append([]string(nil), a...), b...); !sameSets(sets, a, b, both) {
		t.Errorf("frozen sets = %v, want %v, %v, %v", sets, a, b, both)
	}
}

// TestParseDisjointRecognizedShapes pins the grammar ParseDisjoint
// accepts: exactly the disjunctions of UNCHANGED conjunctions and
// tuple-stutter equalities that DisjointSteps emits.
func TestParseDisjointRecognizedShapes(t *testing.T) {
	checkDisjointSteps(t, []string{"a", "b"}, []string{"c"})
}

// TestParseDisjointOnDisjointSteps: a block of several variables against
// a single-variable block parses with the block kept whole.
func TestParseDisjointOnDisjointSteps(t *testing.T) {
	checkDisjointSteps(t, []string{"a1", "a2"}, []string{"b"})
}

// TestParseDisjointSingleComponent: a partition with one block is a plain
// UNCHANGED conjunction — no disjunction at all — and still parses as one
// frozen set.
func TestParseDisjointSingleComponent(t *testing.T) {
	sets, ok := ParseDisjoint(Unchanged("x", "y"))
	if !ok || len(sets) != 1 {
		t.Fatalf("single-block partition: ok=%v sets=%v, want one set", ok, sets)
	}
	if !sets[0]["x"] || !sets[0]["y"] || len(sets[0]) != 2 {
		t.Errorf("frozen set = %v, want {x y}", sets[0])
	}
	// The mirrored orientation v = v' must parse identically.
	mirrored := Eq(Var("x"), PrimedVar("x"))
	sets, ok = ParseDisjoint(mirrored)
	if !ok || len(sets) != 1 || !sets[0]["x"] {
		t.Errorf("mirrored stutter: ok=%v sets=%v, want [{x}]", ok, sets)
	}
}

// TestParseDisjointEmptyPartition: an empty disjunction has no disjunct
// that freezes anything, so it must be rejected rather than read as a
// vacuous (always-false) constraint covering nothing.
func TestParseDisjointEmptyPartition(t *testing.T) {
	if sets, ok := ParseDisjoint(OrE{}); ok {
		t.Errorf("empty disjunction parsed as %v, want rejection", sets)
	}
	if sets, ok := ParseDisjoint(nil); ok {
		t.Errorf("nil constraint parsed as %v, want rejection", sets)
	}
}

// TestParseDisjointOverlappingDeclarations: blocks that share a variable
// are not ParseDisjoint's concern — it reports the frozen sets verbatim,
// overlap included, and the coverage checks downstream reason about them.
func TestParseDisjointOverlappingDeclarations(t *testing.T) {
	e := Or(Unchanged("x", "shared"), Unchanged("y", "shared"))
	sets, ok := ParseDisjoint(e)
	if !ok || len(sets) != 2 {
		t.Fatalf("overlapping blocks: ok=%v sets=%v, want two sets", ok, sets)
	}
	if !sets[0]["shared"] || !sets[1]["shared"] {
		t.Errorf("shared variable lost: %v", sets)
	}
}

// TestParseDisjointRejectsForeignShapes: anything that is not a stutter
// equality must fail the parse — treating x' = x+1 as "freezes x" would
// make the vet coverage audit unsound.
func TestParseDisjointRejectsForeignShapes(t *testing.T) {
	reject := []Expr{
		Eq(PrimedVar("x"), Add(Var("x"), IntC(1))),
		Ne(PrimedVar("x"), Var("x")),
		Not(Unchanged("x")),
		Or(Unchanged("x"), TrueE),
		Eq(Prime(TupleOf(Var("a"), IntC(0))),
			TupleOf(Var("a"), IntC(0))),
		And(Unchanged("x"), Gt(Var("x"), IntC(0))),
	}
	for _, e := range reject {
		if sets, ok := ParseDisjoint(e); ok {
			t.Errorf("foreign shape %v parsed as %v, want rejection", e, sets)
		}
	}
}

// TestParseDisjointRejectsOpaque: a state predicate, which constrains no
// step to stutter, is not a Disjoint constraint.
func TestParseDisjointRejectsOpaque(t *testing.T) {
	if sets, ok := ParseDisjoint(Lt(Var("a"), IntC(5))); ok {
		t.Errorf("a < 5 parsed as %v, want rejection", sets)
	}
}

// stutterDecoder extends enabledDecoder's grammar with stutter shapes over
// mappedLayout — v' = v in both orders, tuple stutters, a stutter of a
// state function that is not a variable tuple, and near misses v' = w — so
// fuzzed expressions reach both ParseDisjoint's accepting and rejecting
// paths.
type stutterDecoder struct{ enabledDecoder }

func (d *stutterDecoder) name() string { return mappedLayout[d.next(len(mappedLayout))] }

func (d *stutterDecoder) expr(depth int) Expr {
	op := d.next(10)
	if depth == 0 {
		op %= 6
	}
	switch op {
	case 0:
		return Unchanged(d.name())
	case 1:
		v := d.name()
		return Eq(Var(v), PrimedVar(v))
	case 2:
		return UnchangedExpr(VarTuple(d.name(), d.name()))
	case 3:
		return Eq(PrimedVar(d.name()), Var(d.name()))
	case 4:
		return UnchangedExpr(mappedQueue())
	case 5:
		return d.action(1)
	case 6, 7:
		return And(d.expr(depth-1), d.expr(depth-1))
	case 8:
		return Or(d.expr(depth-1), d.expr(depth-1))
	default:
		return Not(d.expr(depth - 1))
	}
}

// stepChanging is the step from mappedLayout's first state that changes
// exactly the named variables.
func stepChanging(changed ...string) state.Step {
	domains := mappedDomains()
	from := make(map[string]value.Value, len(mappedLayout))
	to := make(map[string]value.Value, len(mappedLayout))
	for _, v := range mappedLayout {
		from[v], to[v] = domains[v][0], domains[v][0]
	}
	for _, v := range changed {
		to[v] = domains[v][1]
	}
	return state.Step{From: state.New(from), To: state.New(to)}
}

// FuzzParseDisjoint holds ParseDisjoint to two properties. On a partition
// of mappedLayout decoded from the input, it reads each constraint
// DisjointSteps emits as exactly the frozen sets its disjuncts encode. On
// an arbitrary decoded expression it never panics, and whatever it accepts
// is a stutter shape: every disjunct holds on a step exactly when the step
// leaves the disjunct's frozen set unchanged, checked by evaluation on the
// steps that change one variable, none, or all.
func FuzzParseDisjoint(f *testing.F) {
	steps := []state.Step{stepChanging(), stepChanging(mappedLayout...)}
	for _, v := range mappedLayout {
		steps = append(steps, stepChanging(v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &stutterDecoder{enabledDecoder{data: data}}
		k := 1 + d.next(4)
		blocks := make([][]string, k)
		for _, v := range mappedLayout {
			if i := d.next(k + 1); i < k {
				blocks[i] = append(blocks[i], v)
			}
		}
		var tuples [][]string
		for _, b := range blocks {
			if len(b) > 0 {
				tuples = append(tuples, b)
			}
		}
		emitted := DisjointSteps(tuples...)
		n := 0
		for i := range tuples {
			for j := i + 1; j < len(tuples); j++ {
				sets, ok := ParseDisjoint(emitted[n])
				both := append(append([]string(nil), tuples[i]...), tuples[j]...)
				if !ok || !sameSets(sets, tuples[i], tuples[j], both) {
					t.Fatalf("ParseDisjoint(%s) = %v, %v; want %v, %v, %v", emitted[n], sets, ok, tuples[i], tuples[j], both)
				}
				n++
			}
		}
		if n != len(emitted) {
			t.Fatalf("DisjointSteps(%v) emitted %d constraints, want %d", tuples, len(emitted), n)
		}

		e := d.expr(3)
		sets, ok := ParseDisjoint(e)
		if !ok {
			return
		}
		leaves := orLeaves(e)
		if len(leaves) != len(sets) {
			t.Fatalf("ParseDisjoint(%s): %d sets for %d disjuncts", e, len(sets), len(leaves))
		}
		for i, leaf := range leaves {
			for _, st := range steps {
				got, err := EvalBool(leaf, st, nil)
				want := true
				for v := range sets[i] {
					if !st.From.MustGet(v).Equal(st.To.MustGet(v)) {
						want = false
					}
				}
				if err != nil || got != want {
					t.Fatalf("ParseDisjoint(%s) reads %s as freezing %v, but it evaluates to %v (error %v) on %s",
						e, leaf, sets[i], got, err, stepString(st))
				}
			}
		}
	})
}

// parsedSteps reads each constraint DisjointSteps(tuples...) emits with
// ParseDisjoint.
func parsedSteps(t *testing.T, tuples ...[]string) [][]map[string]bool {
	t.Helper()
	var out [][]map[string]bool
	for _, e := range DisjointSteps(tuples...) {
		sets, ok := ParseDisjoint(e)
		if !ok {
			t.Fatalf("DisjointSteps output not recognized: %v", e)
		}
		out = append(out, sets)
	}
	return out
}

// TestDisjointCoversFig9: G's three constraints cover Fig. 9's (e, m)
// together, though none does alone: e is the environment's block, and m
// takes i.ack from the first queue's block and o's signal and value from
// the second's. The two constraints pairing e's block with the others are
// enough; without the one against the first queue's block, i.ack and e may
// change in one step.
func TestDisjointCoversFig9(t *testing.T) {
	env := []string{"i.sig", "i.val", "o.ack"}
	q1 := []string{"z.sig", "z.val", "i.ack"}
	q2 := []string{"o.sig", "o.val", "z.ack"}
	e, m := env, []string{"i.ack", "o.sig", "o.val"}
	g := parsedSteps(t, env, q1, q2) // (env,q1), (env,q2), (q1,q2)
	for _, tc := range []struct {
		name string
		sets [][]map[string]bool
		want bool
	}{
		{"all of G", g, true},
		{"env against both queues", g[:2], true},
		{"env against q1 only", g[:1], false},
		{"env against q2 only", g[1:2], false},
		{"the queues against each other", g[2:], false},
		{"env against q2, queues against each other", g[1:], false},
		{"no constraint", nil, false},
	} {
		if got := DisjointCovers(tc.sets, e, m); got != tc.want {
			t.Errorf("%s: DisjointCovers = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDisjointCoversMatchesStepEnumeration checks DisjointCovers against
// its definition on random DisjointSteps constraints over six variables:
// (a, b) is covered iff no set of changed variables that every constraint
// allows (some frozen set of each stays unchanged) meets both a and b.
func TestDisjointCoversMatchesStepEnumeration(t *testing.T) {
	vars := []string{"u", "v", "w", "x", "y", "z"}
	pick := func(r *rand.Rand) []string {
		var out []string
		for _, v := range vars {
			if r.Intn(3) == 0 {
				out = append(out, v)
			}
		}
		return out
	}
	meets := func(changed int, names []string) bool {
		for _, n := range names {
			if changed&(1<<slices.Index(vars, n)) != 0 {
				return true
			}
		}
		return false
	}
	r := rand.New(rand.NewSource(1))
	covered := 0
	for round := 0; round < 2000; round++ {
		var sets [][]map[string]bool
		for n := r.Intn(4); n > 0; n-- {
			sets = append(sets, parsedSteps(t, pick(r), pick(r))...)
		}
		a, b := pick(r), pick(r)
		want := true
		for changed := 0; changed < 1<<len(vars) && want; changed++ {
			allowed := true
			for _, disjuncts := range sets {
				some := false
				for _, s := range disjuncts {
					frozen := make([]string, 0, len(s))
					for v := range s {
						frozen = append(frozen, v)
					}
					some = some || !meets(changed, frozen)
				}
				allowed = allowed && some
			}
			if allowed && meets(changed, a) && meets(changed, b) {
				want = false
			}
		}
		if got := DisjointCovers(sets, a, b); got != want {
			t.Fatalf("round %d: DisjointCovers(%v, %v, %v) = %v, want %v", round, sets, a, b, got, want)
		}
		if want && len(a) > 0 && len(b) > 0 {
			covered++
		}
	}
	if covered == 0 {
		t.Error("no round had two non-empty covered sets; the oracle is not exercised")
	}
}

// TestFrameSets: each disjunct freezes the variables of its top-level
// stutter conjuncts, through nested conjunctions and tuple stutters, and
// anything else freezes nothing: a non-stutter conjunct adds nothing, a
// disjunct that is not a conjunction freezes nothing, and neither does a
// top-level ∃, whose body's frame FrameSets does not read.
func TestFrameSets(t *testing.T) {
	step := Eq(PrimedVar("x"), Add(Var("x"), IntC(1)))
	for _, tc := range []struct {
		name string
		e    Expr
		want [][]string
	}{
		{"one action", And(step, Unchanged("y", "z")), [][]string{{"y", "z"}}},
		{"nested and", And(step, And(Unchanged("y"), And(Gt(Var("x"), IntC(0)), Unchanged("z")))), [][]string{{"y", "z"}}},
		{"tuple stutter", And(step, Eq(Prime(VarTuple("y", "z")), VarTuple("y", "z"))), [][]string{{"y", "z"}}},
		{"square", Square(Or(And(step, Unchanged("y")), And(Unchanged("x"), Ne(PrimedVar("y"), Var("y")))), VarTuple("x", "y")),
			[][]string{{"y"}, {"x"}, {"x", "y"}}},
		{"not a conjunction", Or(step, Not(Unchanged("y"))), [][]string{{}, {}}},
		{"stutter under a negation", And(Unchanged("y"), Not(Unchanged("z"))), [][]string{{"y"}}},
		{"top-level exists", Exists("v", value.Ints(0, 1), And(Eq(PrimedVar("x"), Var("v")), Unchanged("y"))), [][]string{{}}},
		{"false", Or(), nil},
	} {
		if got := FrameSets(tc.e); !sameSets(got, tc.want...) {
			t.Errorf("%s: FrameSets(%v) = %v, want %v", tc.name, tc.e, got, tc.want)
		}
	}
}

// TestFrameSetsCover: a component whose actions each freeze e and whose
// stutter freezes its outputs m covers (e, m) on its own, and one action
// that forgets one variable of e uncovers exactly the pairs with it.
func TestFrameSetsCover(t *testing.T) {
	e, m := []string{"a", "b"}, []string{"x", "y"}
	act := func(frozen ...string) Expr {
		return And(Eq(PrimedVar("x"), Add(Var("x"), IntC(1))), Unchanged(frozen...))
	}
	square := func(acts ...Expr) [][]map[string]bool {
		return [][]map[string]bool{FrameSets(Square(Or(acts...), VarTuple(m...)))}
	}
	if !DisjointCovers(square(act("a", "b", "y"), act("a", "b")), e, m) {
		t.Error("frames freezing e in every action do not cover (e, m)")
	}
	leaky := square(act("a", "b", "y"), act("a"))
	if DisjointCovers(leaky, e, m) {
		t.Error("an action that does not freeze b still covers (e, m)")
	}
	if !DisjointCovers(leaky, []string{"a"}, m) {
		t.Error("the frames still freeze a in every action, yet do not cover (a, m)")
	}
}
