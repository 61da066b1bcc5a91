package value

import (
	"testing"
	"testing/quick"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Bool(true), KindBool},
		{Int(42), KindInt},
		{Str("x"), KindString},
		{Tuple(Int(1), Int(2)), KindTuple},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if !c.v.IsValid() {
			t.Errorf("%s: not valid", c.v)
		}
	}
	var zero Value
	if zero.IsValid() {
		t.Error("zero value should be invalid")
	}
}

func TestAccessors(t *testing.T) {
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool(TRUE) failed")
	}
	if _, ok := Int(1).AsBool(); ok {
		t.Error("AsBool on int should fail")
	}
	if i, ok := Int(-7).AsInt(); !ok || i != -7 {
		t.Error("AsInt(-7) failed")
	}
	if s, ok := Str("hi").AsString(); !ok || s != "hi" {
		t.Error("AsString failed")
	}
	if _, ok := Str("hi").AsInt(); ok {
		t.Error("AsInt on string should fail")
	}
}

func TestSequenceOps(t *testing.T) {
	s := Tuple(Int(1), Int(2), Int(3))
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	h, ok := s.Head()
	if !ok || !h.Equal(Int(1)) {
		t.Fatalf("Head = %s", h)
	}
	tl, ok := s.Tail()
	if !ok || !tl.Equal(Tuple(Int(2), Int(3))) {
		t.Fatalf("Tail = %s", tl)
	}
	if _, ok := Empty.Head(); ok {
		t.Error("Head of empty should fail")
	}
	if _, ok := Empty.Tail(); ok {
		t.Error("Tail of empty should fail")
	}
	if _, ok := Int(3).Head(); ok {
		t.Error("Head of int should fail")
	}
	cat, ok := Tuple(Int(1)).Concat(Tuple(Int(2)))
	if !ok || !cat.Equal(Tuple(Int(1), Int(2))) {
		t.Fatalf("Concat = %s", cat)
	}
	app, ok := Empty.Append(Int(9))
	if !ok || !app.Equal(Tuple(Int(9))) {
		t.Fatalf("Append = %s", app)
	}
	if v, ok := s.At(2); !ok || !v.Equal(Int(3)) {
		t.Error("At(2) failed")
	}
	if _, ok := s.At(3); ok {
		t.Error("At(3) should fail")
	}
}

func TestSequenceImmutability(t *testing.T) {
	base := Tuple(Int(1))
	a, _ := base.Append(Int(2))
	b, _ := base.Append(Int(3))
	if !a.Equal(Tuple(Int(1), Int(2))) || !b.Equal(Tuple(Int(1), Int(3))) {
		t.Fatalf("append aliasing: a=%s b=%s", a, b)
	}
	elems := base.Elems()
	elems[0] = Int(99)
	if !base.Equal(Tuple(Int(1))) {
		t.Fatal("Elems exposed internal storage")
	}
}

func TestEqualAndCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Bool(false), Bool(true), -1},
		{Str("a"), Str("b"), -1},
		{Tuple(Int(1)), Tuple(Int(1), Int(0)), -1},
		{Tuple(Int(2)), Tuple(Int(1), Int(9)), 1},
		{Bool(true), Int(0), -1}, // kind order
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.cmp {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a, c.b, got, c.cmp)
		}
		if got := c.b.Compare(c.a); got != -c.cmp {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.b, c.a, got, -c.cmp)
		}
		if (c.cmp == 0) != c.a.Equal(c.b) {
			t.Errorf("Equal(%s, %s) inconsistent with Compare", c.a, c.b)
		}
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{Int(-3), "-3"},
		{Str("a"), `"a"`},
		{Tuple(), "<<>>"},
		{Tuple(Int(1), Tuple(Bool(true))), "<<1, <<TRUE>>>>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	vals := []Value{
		Bool(true), Bool(false), Int(0), Int(1), Str(""), Str("0"),
		Empty, Tuple(Int(0)), Tuple(Int(0), Int(0)), Tuple(Empty), Tuple(Tuple(Int(0))),
	}
	seen := make(map[uint64]Value)
	for _, v := range vals {
		fp := v.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("fingerprint collision: %s and %s", prev, v)
		}
		seen[fp] = v
	}
}

func TestFingerprintEqualConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		if va.Equal(vb) {
			return va.Fingerprint() == vb.Fingerprint()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCompareIsTotalOrder property-checks antisymmetry and transitivity on
// sequences of small integers.
func TestCompareIsTotalOrder(t *testing.T) {
	mk := func(xs []uint8) Value {
		elems := make([]Value, 0, len(xs)%4)
		for i := 0; i < len(xs)%4; i++ {
			elems = append(elems, Int(int64(xs[i]%3)))
		}
		return Tuple(elems...)
	}
	f := func(a, b, c []uint8) bool {
		va, vb, vc := mk(a), mk(b), mk(c)
		if va.Compare(vb) != -vb.Compare(va) {
			return false
		}
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 && va.Compare(vc) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDomains(t *testing.T) {
	if got := Ints(0, 2); len(got) != 3 || !got[2].Equal(Int(2)) {
		t.Errorf("Ints(0,2) = %v", got)
	}
	if Ints(3, 2) != nil {
		t.Error("Ints(3,2) should be nil")
	}
	if got := Bits(); len(got) != 2 || !got[0].Equal(Int(0)) {
		t.Errorf("Bits = %v", got)
	}
	if got := Bools(); len(got) != 2 {
		t.Errorf("Bools = %v", got)
	}
}

func TestSeqs(t *testing.T) {
	got := Seqs(Bits(), 2)
	// 1 empty + 2 singletons + 4 pairs.
	if len(got) != 7 {
		t.Fatalf("Seqs(bits, 2): %d sequences, want 7", len(got))
	}
	if !got[0].Equal(Empty) {
		t.Error("first sequence should be empty")
	}
	seen := make(map[string]bool)
	for _, s := range got {
		if seen[s.String()] {
			t.Errorf("duplicate %s", s)
		}
		seen[s.String()] = true
		if s.Len() > 2 {
			t.Errorf("sequence %s too long", s)
		}
	}
}

func TestForEachAssignment(t *testing.T) {
	domains := map[string][]Value{"x": Bits(), "y": Ints(0, 2)}
	var count int
	complete := ForEachAssignment([]string{"x", "y"}, domains, func(a map[string]Value) bool {
		count++
		if len(a) != 2 {
			t.Errorf("assignment has %d vars", len(a))
		}
		return true
	})
	if !complete || count != 6 {
		t.Fatalf("complete=%v count=%d, want true 6", complete, count)
	}
	// Early stop.
	count = 0
	complete = ForEachAssignment([]string{"x", "y"}, domains, func(a map[string]Value) bool {
		count++
		return count < 3
	})
	if complete || count != 3 {
		t.Fatalf("early stop: complete=%v count=%d", complete, count)
	}
	// Empty name list → one empty assignment.
	count = 0
	ForEachAssignment(nil, domains, func(a map[string]Value) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("empty names: count=%d", count)
	}
}
