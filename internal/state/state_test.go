package state

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"opentla/internal/value"
)

func s(pairs ...any) *State { return FromPairs(pairs...) }

func TestGetAndVars(t *testing.T) {
	st := s("y", value.Int(2), "x", value.Int(1))
	if v, ok := st.Get("x"); !ok || !v.Equal(value.Int(1)) {
		t.Error("Get(x) failed")
	}
	if _, ok := st.Get("z"); ok {
		t.Error("Get(z) should fail")
	}
	vars := st.Vars()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars = %v (should be sorted)", vars)
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d", st.Len())
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet on unbound variable should panic")
		}
	}()
	s("x", value.Int(1)).MustGet("nope")
}

func TestWith(t *testing.T) {
	base := s("b", value.Int(2), "d", value.Int(4))
	// Replace existing.
	st := base.With("b", value.Int(9))
	if !st.MustGet("b").Equal(value.Int(9)) {
		t.Error("With replace failed")
	}
	// Insert before, between, after.
	for _, name := range []string{"a", "c", "e"} {
		st := base.With(name, value.Int(7))
		if !st.MustGet(name).Equal(value.Int(7)) {
			t.Errorf("With insert %q failed: %s", name, st)
		}
		if st.Len() != 3 {
			t.Errorf("With insert %q: Len = %d", name, st.Len())
		}
		vars := st.Vars()
		for i := 1; i < len(vars); i++ {
			if vars[i-1] >= vars[i] {
				t.Errorf("With insert %q: unsorted %v", name, vars)
			}
		}
	}
	// Original untouched.
	if !base.MustGet("b").Equal(value.Int(2)) {
		t.Error("With mutated the original")
	}
}

func TestWithAll(t *testing.T) {
	base := s("a", value.Int(1), "c", value.Int(3))
	st := base.WithAll(map[string]value.Value{
		"a": value.Int(10),
		"b": value.Int(20),
		"d": value.Int(40),
	})
	want := s("a", value.Int(10), "b", value.Int(20), "c", value.Int(3), "d", value.Int(40))
	if !st.Equal(want) {
		t.Fatalf("WithAll = %s, want %s", st, want)
	}
	if got := base.WithAll(nil); got != base {
		t.Error("WithAll(nil) should return the receiver")
	}
}

// TestWithAllMatchesMapRebuild property-checks the merge-based WithAll
// against the naive map-based construction.
func TestWithAllMatchesMapRebuild(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	pick := func(vals []uint8, i int) int64 {
		if len(vals) == 0 {
			return 0
		}
		return int64(vals[i%len(vals)] % 4)
	}
	f := func(baseVals, upVals []uint8, upMask uint8) bool {
		base := make(map[string]value.Value)
		for i, n := range names {
			base[n] = value.Int(pick(baseVals, i))
		}
		st := New(base)
		updates := make(map[string]value.Value)
		for i, n := range names {
			if upMask&(1<<i) != 0 {
				updates[n+"x"] = value.Int(pick(upVals, i))
				updates[n] = value.Int(pick(upVals, i))
			}
		}
		got := st.WithAll(updates)
		for k, v := range updates {
			base[k] = v
		}
		return got.Equal(New(base))
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDrop(t *testing.T) {
	st := s("x", value.Int(1), "y", value.Int(2), "z", value.Int(3))
	d := st.Drop([]string{"y", "missing"})
	if d.Len() != 2 || !d.MustGet("z").Equal(value.Int(3)) {
		t.Errorf("Drop = %s", d)
	}
	if _, ok := d.Get("y"); ok {
		t.Error("Drop left y")
	}
}

func TestEqualOn(t *testing.T) {
	a := s("x", value.Int(1), "y", value.Int(2))
	b := s("x", value.Int(1), "y", value.Int(9))
	if !a.EqualOn(b, []string{"x"}) {
		t.Error("EqualOn x should hold")
	}
	if a.EqualOn(b, []string{"x", "y"}) {
		t.Error("EqualOn x,y should fail")
	}
	if !a.EqualOn(b, []string{"absent"}) {
		t.Error("EqualOn absent-in-both should hold")
	}
	c := s("x", value.Int(1))
	if a.EqualOn(c, []string{"y"}) {
		t.Error("EqualOn with var bound on one side only should fail")
	}
}

func TestFingerprintAndKey(t *testing.T) {
	a := s("x", value.Int(1), "y", value.Int(2))
	b := s("y", value.Int(2), "x", value.Int(1))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint should be order-independent")
	}
	if a.Key() != b.Key() {
		t.Error("key should be order-independent")
	}
	c := s("x", value.Int(2), "y", value.Int(1))
	if a.Key() == c.Key() {
		t.Error("different states share a key")
	}
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal misbehaves")
	}
}

func TestStepStutters(t *testing.T) {
	a := s("x", value.Int(1), "y", value.Int(2))
	b := a.With("y", value.Int(3))
	step := Step{From: a, To: b}
	if !step.Stutters([]string{"x"}) {
		t.Error("x unchanged")
	}
	if step.Stutters([]string{"x", "y"}) {
		t.Error("y changed")
	}
}

func TestLassoIndexing(t *testing.T) {
	s0 := s("x", value.Int(0))
	s1 := s("x", value.Int(1))
	s2 := s("x", value.Int(2))
	l, err := NewLasso([]*State{s0}, []*State{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	want := []*State{s0, s1, s2, s1, s2, s1}
	for i, w := range want {
		if !l.At(i).Equal(w) {
			t.Errorf("At(%d) = %s, want %s", i, l.At(i), w)
		}
	}
	if l.Horizon() != 3 {
		t.Errorf("Horizon = %d", l.Horizon())
	}
	steps := l.CycleSteps()
	if len(steps) != 2 {
		t.Fatalf("CycleSteps: %d", len(steps))
	}
	if !steps[1].To.Equal(s1) {
		t.Error("cycle wrap-around step wrong")
	}
	fp := l.FinitePrefix(5)
	if len(fp) != 5 || !fp[4].Equal(s2) {
		t.Errorf("FinitePrefix = %v", fp)
	}
}

func TestNewLassoRejectsEmptyCycle(t *testing.T) {
	if _, err := NewLasso(nil, nil); err == nil {
		t.Error("empty cycle should be rejected")
	}
}

func TestStutterLasso(t *testing.T) {
	s0 := s("x", value.Int(0))
	l := StutterLasso(nil, s0)
	if l.CycleLen() != 1 || !l.At(7).Equal(s0) {
		t.Error("StutterLasso misbehaves")
	}
}

func TestBehaviorHelpers(t *testing.T) {
	b := Behavior{s("x", value.Int(0)), s("x", value.Int(1)), s("x", value.Int(2))}
	if len(b.Prefix(2)) != 2 || len(b.Prefix(9)) != 3 {
		t.Error("Prefix misbehaves")
	}
	var steps int
	b.Steps(func(i int, st Step) bool {
		steps++
		return true
	})
	if steps != 2 {
		t.Errorf("Steps visited %d", steps)
	}
	steps = 0
	b.Steps(func(i int, st Step) bool {
		steps++
		return false
	})
	if steps != 1 {
		t.Error("Steps should stop early")
	}
}

// TestFingerprintConcurrent: many goroutines fingerprinting the same fresh
// state at once must all observe the same nonzero value, since states are
// shared across the explorer's workers. Run with -race.
func TestFingerprintConcurrent(t *testing.T) {
	for round := 0; round < 50; round++ {
		st := s("x", value.Int(int64(round)), "y", value.True)
		const goroutines = 8
		got := make([]uint64, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = st.Fingerprint()
			}(g)
		}
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			if got[g] != got[0] || got[g] == 0 {
				t.Fatalf("round %d: inconsistent fingerprints %v", round, got)
			}
		}
	}
}

// refState is the representation State had before value codes: a sorted
// slice of name/value bindings. It is the slow oracle TestStateMatchesReference
// holds State to.
type refState []refBinding

type refBinding struct {
	name string
	val  value.Value
}

func refNew(vars map[string]value.Value) refState {
	r := make(refState, 0, len(vars))
	for n, v := range vars {
		r = append(r, refBinding{n, v})
	}
	sort.Slice(r, func(i, j int) bool { return r[i].name < r[j].name })
	return r
}

func (r refState) toMap() map[string]value.Value {
	m := make(map[string]value.Value, len(r))
	for _, b := range r {
		m[b.name] = b.val
	}
	return m
}

func (r refState) get(name string) (value.Value, bool) {
	for _, b := range r {
		if b.name == name {
			return b.val, true
		}
	}
	return value.Value{}, false
}

func (r refState) withAll(updates map[string]value.Value) refState {
	m := r.toMap()
	for n, v := range updates {
		m[n] = v
	}
	return refNew(m)
}

func (r refState) filter(keep func(string) bool) refState {
	var out refState
	for _, b := range r {
		if keep(b.name) {
			out = append(out, b)
		}
	}
	return out
}

func (r refState) cloneWith(ups []PosUpdate) refState {
	out := append(refState(nil), r...)
	for _, u := range ups {
		out[u.Pos].val = u.Val
	}
	return out
}

func (r refState) vars() []string {
	out := make([]string, len(r))
	for i, b := range r {
		out[i] = b.name
	}
	return out
}

func (r refState) key() string {
	var sb strings.Builder
	for _, b := range r {
		sb.WriteString(b.name + "=" + b.val.String() + ";")
	}
	return sb.String()
}

func (r refState) String() string {
	parts := make([]string, len(r))
	for i, b := range r {
		parts[i] = b.name + "=" + b.val.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func (r refState) equal(o refState) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i].name != o[i].name || !r[i].val.Equal(o[i].val) {
			return false
		}
	}
	return true
}

// fingerprint is the binding-slice hash: FNV-1a over each binding's name
// bytes, '=', its value's fingerprint (8 bytes, little-endian) and ';'.
func (r refState) fingerprint() uint64 {
	h := uint64(fnvOffset64)
	for _, b := range r {
		for i := 0; i < len(b.name); i++ {
			h = (h ^ uint64(b.name[i])) * fnvPrime64
		}
		h = (h ^ '=') * fnvPrime64
		f := b.val.Fingerprint()
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(f>>(8*i)))) * fnvPrime64
		}
		h = (h ^ ';') * fnvPrime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// refNames are the variable names the reference test draws from; "q.w"
// and "w" exercise names that sort around punctuation.
var refNames = []string{"a", "b", "q.w", "w", "x"}

func randValue(rng *rand.Rand, depth int) value.Value {
	switch k := rng.Intn(5); {
	case k == 0:
		return value.Bool(rng.Intn(2) == 0)
	case k == 1:
		return value.Str([]string{"", "a", "bc"}[rng.Intn(3)])
	case k == 2 && depth < 2:
		elems := make([]value.Value, rng.Intn(3))
		for i := range elems {
			elems[i] = randValue(rng, depth+1)
		}
		return value.Tuple(elems...)
	default:
		return value.Int(int64(rng.Intn(7) - 3))
	}
}

func randBindings(rng *rand.Rand) map[string]value.Value {
	m := map[string]value.Value{}
	for _, n := range refNames {
		if rng.Intn(3) > 0 {
			m[n] = randValue(rng, 0)
		}
	}
	return m
}

func randNames(rng *rand.Rand) []string {
	var out []string
	for _, n := range append(refNames, "absent") {
		if rng.Intn(2) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// TestStateMatchesReference drives State and the binding-slice reference
// through the same seeded sequence of constructions and checks that every
// observation agrees: Get on every name, Vars, Key, String, Equal against
// earlier states, and Fingerprint, which must be equal, not merely
// consistent, since state numbering and snapshot bytes depend on it. Every
// constructor runs, so equal states built in different ways must also have
// equal RowHashes: the store dedups by them.
func TestStateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	type pair struct {
		st  *State
		ref refState
	}
	pool := []pair{{New(nil), nil}}
	scratch := New(nil)
	rowHashes := map[string]uint64{} // by reference key
	for step := 0; step < 5000; step++ {
		p := pool[rng.Intn(len(pool))]
		var next pair
		switch op := rng.Intn(9); op {
		case 0:
			m := randBindings(rng)
			next = pair{New(m), refNew(m)}
		case 1:
			n, v := refNames[rng.Intn(len(refNames))], randValue(rng, 0)
			next = pair{p.st.With(n, v), p.ref.withAll(map[string]value.Value{n: v})}
		case 2:
			m := randBindings(rng)
			next = pair{p.st.WithAll(m), p.ref.withAll(m)}
		case 3:
			names := randNames(rng)
			drop := map[string]bool{}
			for _, n := range names {
				drop[n] = true
			}
			next = pair{p.st.Drop(names), p.ref.filter(func(n string) bool { return !drop[n] })}
		case 4, 5:
			var ups []PosUpdate
			for i := 0; i < p.st.Len(); i++ {
				if rng.Intn(2) == 0 {
					ups = append(ups, PosUpdate{Pos: i, Val: randValue(rng, 0)})
				}
			}
			if rng.Intn(2) == 0 {
				p.st.Resolve(ups)
			}
			if op == 4 {
				next = pair{p.st.CloneWith(ups), p.ref.cloneWith(ups)}
			} else {
				p.st.OverwriteInto(scratch, ups)
				checkAgainstRef(t, step, scratch, p.ref.cloneWith(ups))
				next = pair{scratch.Clone(), p.ref.cloneWith(ups)}
			}
		case 6:
			// WithCodes: take another state's codes at the variables both
			// bind, as the canonicalizer copies remembered codes.
			q := pool[rng.Intn(len(pool))]
			var pos []int
			var codes []uint32
			updates := map[string]value.Value{}
			for i, n := range p.st.Vars() {
				if j, ok := q.st.PosOf(n); ok && rng.Intn(2) == 0 {
					pos = append(pos, i)
					codes = append(codes, q.st.CodeAt(j))
					updates[n] = q.st.At(j)
				}
			}
			next = pair{p.st.WithCodes(pos, codes), p.ref.withAll(updates)}
		case 7:
			// Extend by the names p does not bind.
			var extra []string
			var ups []PosUpdate
			updates := map[string]value.Value{}
			for _, n := range randNames(rng) {
				if _, ok := p.st.Get(n); !ok {
					extra = append(extra, n)
				}
			}
			x, err := NewExtension(p.st.Layout(), extra, nil)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for j, n := range extra {
				v := randValue(rng, 0)
				ups = append(ups, x.Update(j, v))
				updates[n] = v
			}
			wide, err := x.Extend(p.st, ups)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			next = pair{wide, p.ref.withAll(updates)}
		case 8:
			// Project away some of p's names, into the reused scratch.
			var extra []string
			for _, n := range randNames(rng) {
				if _, ok := p.st.Get(n); ok {
					extra = append(extra, n)
				}
			}
			drop := map[string]bool{}
			for _, n := range extra {
				drop[n] = true
			}
			x, err := NewExtension(p.st.Drop(extra).Layout(), extra, nil)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := x.Project(p.st, scratch); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			next = pair{scratch.Clone(), p.ref.filter(func(n string) bool { return !drop[n] })}
		}
		checkAgainstRef(t, step, next.st, next.ref)
		if h, ok := rowHashes[next.ref.key()]; !ok {
			rowHashes[next.ref.key()] = next.st.RowHash()
		} else if h != next.st.RowHash() {
			t.Fatalf("step %d: %s RowHash = %#x, an equal state's is %#x", step, next.st, next.st.RowHash(), h)
		}
		for _, o := range pool[max(0, len(pool)-20):] {
			if got, want := next.st.Equal(o.st), next.ref.equal(o.ref); got != want {
				t.Fatalf("step %d: %s.Equal(%s) = %v, reference says %v", step, next.st, o.st, got, want)
			}
			if got, want := next.st.EqualOn(o.st, refNames), next.ref.restrictEqual(o.ref); got != want {
				t.Fatalf("step %d: %s.EqualOn(%s) = %v, reference says %v", step, next.st, o.st, got, want)
			}
		}
		pool = append(pool, next)
	}
}

// restrictEqual is EqualOn(o, refNames) on the reference.
func (r refState) restrictEqual(o refState) bool {
	for _, n := range refNames {
		a, aok := r.get(n)
		b, bok := o.get(n)
		if aok != bok || aok && !a.Equal(b) {
			return false
		}
	}
	return true
}

func checkAgainstRef(t *testing.T, step int, st *State, ref refState) {
	t.Helper()
	for _, n := range append(refNames, "absent") {
		got, gok := st.Get(n)
		want, wok := ref.get(n)
		if gok != wok || gok && !got.Equal(want) {
			t.Fatalf("step %d: %s.Get(%q) = %v, %v; reference %v, %v", step, st, n, got, gok, want, wok)
		}
	}
	if got, want := strings.Join(st.Vars(), ","), strings.Join(ref.vars(), ","); got != want {
		t.Fatalf("step %d: Vars = %s, reference %s", step, got, want)
	}
	if got, want := st.Key(), ref.key(); got != want {
		t.Fatalf("step %d: Key = %s, reference %s", step, got, want)
	}
	if got, want := st.String(), ref.String(); got != want {
		t.Fatalf("step %d: String = %s, reference %s", step, got, want)
	}
	if got, want := st.Fingerprint(), ref.fingerprint(); got != want {
		t.Fatalf("step %d: %s Fingerprint = %#x, reference %#x", step, st, got, want)
	}
}

// TestFingerprintGolden pins literal fingerprints, computed by the
// binding-slice representation before value codes existed. State numbering,
// graph-cache snapshots and their bytes all follow from these hashes, so a
// change here silently renumbers every graph.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		st   *State
		want uint64
	}{
		{s("x", value.Int(0)), 0x915f0d707d666672},
		{s("x", value.Int(-7), "y", value.Int(1<<40)), 0xbe2ec9fab26bd925},
		{s("b", value.True, "c", value.False), 0x5a7168b0b4189e90},
		{s("msg", value.Str("hello"), "z", value.Str("")), 0xf8cfdfd88d3f05b9},
		{s("q", value.Tuple(value.Int(1), value.Tuple(value.Str("a"), value.True)), "r", value.Empty, "s", value.Int(3)), 0x6134e7dac4e63310},
		{s("i.ack", value.Int(0), "i.sig", value.Int(1), "i.val", value.Int(0), "q", value.Tuple(value.Int(1), value.Int(0))), 0x808e289066f32616},
	} {
		if got := tc.st.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint = %#x, want %#x", tc.st, got, tc.want)
		}
	}
}

// TestRowHashSeparatesLayouts: two layouts whose states have identical
// code rows start RowHash from different seeds, so the states hash apart
// (and are not Equal).
func TestRowHashSeparatesLayouts(t *testing.T) {
	// Names no other test binds, so both dictionaries hand out code 1.
	a := s("rowhash.a", value.Int(5))
	b := s("rowhash.b", value.Int(5))
	if a.CodeAt(0) != b.CodeAt(0) {
		t.Fatalf("codes %d and %d differ; the test needs equal rows", a.CodeAt(0), b.CodeAt(0))
	}
	if a.Equal(b) {
		t.Fatal("states over distinct layouts compare Equal")
	}
	if a.RowHash() == b.RowHash() {
		t.Fatalf("equal rows over distinct layouts share RowHash %#x", a.RowHash())
	}
}

// TestInvalidZeroValuePanics checks that no state can bind the invalid zero
// value.Value: every constructor that interns a value refuses it by name.
func TestInvalidZeroValuePanics(t *testing.T) {
	base := s("x", value.Int(0))
	var zero value.Value
	for name, f := range map[string]func(){
		"New":       func() { New(map[string]value.Value{"x": zero}) },
		"With":      func() { base.With("x", zero) },
		"WithAll":   func() { base.WithAll(map[string]value.Value{"y": zero}) },
		"CloneWith": func() { base.CloneWith([]PosUpdate{{Pos: 0, Val: zero}}) },
		"Resolve":   func() { base.Resolve([]PosUpdate{{Pos: 0, Val: zero}}) },
		"OverwriteInto": func() {
			base.OverwriteInto(New(nil), []PosUpdate{{Pos: 0, Val: zero}})
		},
		"Extension.Extend": func() {
			x, err := NewExtension(base.Layout(), []string{"y"}, nil)
			if err != nil {
				panic(err.Error())
			}
			x.Extend(base, []PosUpdate{x.Update(0, zero)})
		},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "invalid zero value.Value") {
					t.Errorf("%s with the zero value: panic %q, want one naming the invalid zero value", name, msg)
				}
			}()
			f()
		}()
	}
}
