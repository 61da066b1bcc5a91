package reduce

import (
	"testing"

	"opentla/internal/form"
)

// TestParseDisjointRecognizedShapes pins the grammar ParseDisjoint
// accepts: exactly the disjunctions of UNCHANGED conjunctions and
// tuple-stutter equalities that form.DisjointSteps emits.
func TestParseDisjointRecognizedShapes(t *testing.T) {
	square := form.DisjointSteps([]string{"a", "b"}, []string{"c"})[0]
	sets, ok := ParseDisjoint(square)
	if !ok {
		t.Fatalf("DisjointSteps output not recognized: %v", square)
	}
	// [Unchanged(a,b) ∨ Unchanged(c)]_⟨a,b,c⟩ desugars to three disjuncts:
	// the square's stutter leaf freezes the full tuple.
	if len(sets) != 3 {
		t.Fatalf("got %d frozen sets, want 3: %v", len(sets), sets)
	}
	wantSets := []map[string]bool{
		{"a": true, "b": true},
		{"c": true},
		{"a": true, "b": true, "c": true},
	}
	for i, want := range wantSets {
		if len(sets[i]) != len(want) {
			t.Errorf("set %d = %v, want %v", i, sets[i], want)
		}
		for v := range want {
			if !sets[i][v] {
				t.Errorf("set %d = %v, missing %q", i, sets[i], v)
			}
		}
	}
}

// TestParseDisjointSingleComponent: a partition with one block is a plain
// UNCHANGED conjunction — no disjunction at all — and still parses as one
// frozen set.
func TestParseDisjointSingleComponent(t *testing.T) {
	sets, ok := ParseDisjoint(form.Unchanged("x", "y"))
	if !ok || len(sets) != 1 {
		t.Fatalf("single-block partition: ok=%v sets=%v, want one set", ok, sets)
	}
	if !sets[0]["x"] || !sets[0]["y"] || len(sets[0]) != 2 {
		t.Errorf("frozen set = %v, want {x y}", sets[0])
	}
	// The mirrored orientation v = v' must parse identically.
	mirrored := form.Eq(form.Var("x"), form.PrimedVar("x"))
	sets, ok = ParseDisjoint(mirrored)
	if !ok || len(sets) != 1 || !sets[0]["x"] {
		t.Errorf("mirrored stutter: ok=%v sets=%v, want [{x}]", ok, sets)
	}
}

// TestParseDisjointEmptyPartition: an empty disjunction has no disjunct
// that freezes anything, so it must be rejected rather than read as a
// vacuous (always-false) constraint covering nothing.
func TestParseDisjointEmptyPartition(t *testing.T) {
	if sets, ok := ParseDisjoint(form.OrE{}); ok {
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
	e := form.Or(form.Unchanged("x", "shared"), form.Unchanged("y", "shared"))
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
// make the vet coverage audit and block-symmetry validation unsound.
func TestParseDisjointRejectsForeignShapes(t *testing.T) {
	reject := []form.Expr{
		form.Eq(form.PrimedVar("x"), form.Add(form.Var("x"), form.IntC(1))),
		form.Ne(form.PrimedVar("x"), form.Var("x")),
		form.Not(form.Unchanged("x")),
		form.Or(form.Unchanged("x"), form.TrueE),
		form.Eq(form.Prime(form.TupleOf(form.Var("a"), form.IntC(0))),
			form.TupleOf(form.Var("a"), form.IntC(0))),
		form.And(form.Unchanged("x"), form.Gt(form.Var("x"), form.IntC(0))),
	}
	for _, e := range reject {
		if sets, ok := ParseDisjoint(e); ok {
			t.Errorf("foreign shape %v parsed as %v, want rejection", e, sets)
		}
	}
}
