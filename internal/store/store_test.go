package store

import (
	"fmt"
	"sync"
	"testing"

	"opentla/internal/state"
	"opentla/internal/value"
)

func mkState(x int64) *state.State {
	return state.FromPairs("x", value.Int(x))
}

func mkState2(x, y int64) *state.State {
	return state.FromPairs("x", value.Int(x), "y", value.Int(y))
}

func TestInternDedupes(t *testing.T) {
	st := New()
	a := mkState(1)
	b := mkState(1) // distinct object, equal state
	refA, added := st.Intern(a)
	if !added {
		t.Fatal("first intern should add")
	}
	refB, added := st.Intern(b)
	if added {
		t.Fatal("second intern of an equal state should not add")
	}
	if refA != refB {
		t.Fatalf("refs differ: %v vs %v", refA, refB)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	st.Number(refA, 5)
	if id, ok := st.Get(mkState(1)); !ok || id != 5 {
		t.Errorf("Get = %d,%v; want 5,true", id, ok)
	}
	if _, ok := st.Get(mkState(2)); ok {
		t.Error("Get should miss an un-interned state")
	}
}

// TestCollisionFallback injects a degenerate hash so every state collides,
// proving dedup falls back to structural equality: distinct states sharing a
// fingerprint must never be merged.
func TestCollisionFallback(t *testing.T) {
	constant := func(*state.State) uint64 { return 42 }
	st := NewWithHash(constant)
	const n = 20
	refs := make(map[Ref]int64)
	for i := int64(0); i < n; i++ {
		ref, added := st.Intern(mkState(i))
		if !added {
			t.Fatalf("state x=%d should be new despite the colliding hash", i)
		}
		refs[ref] = i
	}
	if len(refs) != n {
		t.Fatalf("got %d distinct refs, want %d", len(refs), n)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	// Every ref is the exact state that produced it: numbering it by its
	// value makes Get of that value return it.
	for ref, x := range refs {
		st.Number(ref, int(x))
	}
	for i := int64(0); i < n; i++ {
		if id, ok := st.Get(mkState(i)); !ok || id != int(i) {
			t.Errorf("Get(x=%d) = %d,%v; want %d,true", i, id, ok, i)
		}
	}
	// Re-interning any of them still dedups.
	for i := int64(0); i < n; i++ {
		if _, added := st.Intern(mkState(i)); added {
			t.Errorf("re-intern of x=%d should not add", i)
		}
	}
}

// TestConcurrentIntern hammers one store from many goroutines interning
// overlapping states: exactly one goroutine must win each state, all refs
// must agree, and the final count must be exact. Run with -race.
func TestConcurrentIntern(t *testing.T) {
	st := New()
	const (
		goroutines = 8
		distinct   = 500
	)
	wins := make([][]bool, goroutines)
	refs := make([][]Ref, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wins[g] = make([]bool, distinct)
		refs[g] = make([]Ref, distinct)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < distinct; i++ {
				refs[g][i], wins[g][i] = st.Intern(mkState2(int64(i), int64(i%7)))
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != distinct {
		t.Fatalf("Len = %d, want %d", st.Len(), distinct)
	}
	for i := 0; i < distinct; i++ {
		winners := 0
		for g := 0; g < goroutines; g++ {
			if wins[g][i] {
				winners++
			}
		}
		if winners != 1 {
			t.Fatalf("state %d has %d winners, want exactly 1", i, winners)
		}
	}
	// All goroutines observe the same ref for the same state.
	for i := 0; i < distinct; i++ {
		ref, added := st.Intern(mkState2(int64(i), int64(i%7)))
		for g := 0; g < goroutines; g++ {
			if added || refs[g][i] != ref {
				t.Fatalf("state %d: inconsistent refs after concurrent intern", i)
			}
		}
	}
}

// TestNumberCollisions: with a constant hash every state shares one
// bucket, yet distinct states keep distinct numbers.
func TestNumberCollisions(t *testing.T) {
	st := NewWithHash(func(*state.State) uint64 { return 7 })
	for i := int64(0); i < 10; i++ {
		ref, added := st.Intern(mkState(i))
		if !added {
			t.Fatalf("x=%d should be new despite the colliding hash", i)
		}
		st.Number(ref, int(i))
	}
	if st.Len() != 10 {
		t.Fatalf("Len = %d, want 10", st.Len())
	}
	for i := int64(0); i < 10; i++ {
		id, ok := st.Get(mkState(i))
		if !ok || id != int(i) {
			t.Errorf("Get(x=%d) = %d,%v; want %d,true", i, id, ok, i)
		}
	}
	if _, ok := st.Get(mkState(99)); ok {
		t.Error("Get of an absent state should miss even with a colliding hash")
	}
}

// TestGetNumberedOnly: a state is found by Get only once it is numbered;
// until then ID reports -1.
func TestGetNumberedOnly(t *testing.T) {
	for _, h := range []Hash{nil, func(*state.State) uint64 { return 0 }} {
		st := NewWithHash(h)
		ref, _ := st.Intern(mkState(1))
		other, _ := st.Intern(mkState(2))
		if _, ok := st.Get(mkState(1)); ok {
			t.Error("Get of an interned but unnumbered state should report false")
		}
		if id := st.ID(ref); id != -1 {
			t.Errorf("ID of an unnumbered ref = %d, want -1", id)
		}
		st.Number(ref, 0)
		if id, ok := st.Get(mkState(1)); !ok || id != 0 || st.ID(ref) != 0 {
			t.Errorf("after Number: Get = %d,%v, ID = %d; want 0,true,0", id, ok, st.ID(ref))
		}
		if _, ok := st.Get(mkState(2)); ok || st.ID(other) != -1 {
			t.Error("numbering one state must leave the other unnumbered")
		}
	}
}

// TestRefPacksShardAndSlot: a Ref carries its state's shard, Partition of
// the store's own hash, in its low bits, and ID and Get round-trip through
// it.
func TestRefPacksShardAndSlot(t *testing.T) {
	st := New()
	// Enough states to populate many shards and multiple slots per shard.
	refs := make([]Ref, 1000)
	for i := range refs {
		s := mkState(int64(i))
		ref, added := st.Intern(s)
		if !added {
			t.Fatalf("x=%d should be new", i)
		}
		if got, want := int(ref&(NumPartitions-1)), Partition(s.RowHash()); got != want {
			t.Fatalf("x=%d: Ref %v is in shard %d, want %d", i, ref, got, want)
		}
		refs[i] = ref
		st.Number(ref, i)
	}
	if st.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", st.Len())
	}
	for i, ref := range refs {
		if id := st.ID(ref); id != i {
			t.Fatalf("ID of x=%d = %d", i, id)
		}
		if id, ok := st.Get(mkState(int64(i))); !ok || id != i {
			t.Fatalf("Get(x=%d) = %d,%v", i, id, ok)
		}
	}
}

// TestConcurrentNumberDistinctPartitions numbers every fingerprint
// partition on its own goroutine at once, the parallel barrier's assign
// phase. The store shards by its own hash, so the partitions share shards.
// Run with -race: Number takes no lock, so numbering distinct refs must
// share no memory, even within a shard.
func TestConcurrentNumberDistinctPartitions(t *testing.T) {
	st := New()
	var byPart [NumPartitions][]Ref
	shared := 0 // refs whose shard differs from their partition
	for i := 0; i < 4000; i++ {
		s := mkState2(int64(i), int64(i%3))
		ref, _ := st.Intern(s)
		p := Partition(s.Fingerprint())
		byPart[p] = append(byPart[p], ref)
		if int(ref&(NumPartitions-1)) != p {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("every state's shard is its fingerprint partition; the test needs them to differ")
	}
	var wg sync.WaitGroup
	for p := range byPart {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k, ref := range byPart[p] {
				st.Number(ref, p<<16|k)
			}
		}(p)
	}
	wg.Wait()
	for p := range byPart {
		for k, ref := range byPart[p] {
			if id := st.ID(ref); id != p<<16|k {
				t.Fatalf("partition %d slot %d: ID = %d, want %d", p, k, id, p<<16|k)
			}
		}
	}
	for i := 0; i < 4000; i++ {
		if _, ok := st.Get(mkState2(int64(i), int64(i%3))); !ok {
			t.Fatalf("state %d unnumbered after the concurrent round", i)
		}
	}
}

// TestEqualRowsOverDistinctLayouts: states whose code rows are identical
// but whose variables differ intern as distinct states.
func TestEqualRowsOverDistinctLayouts(t *testing.T) {
	a := state.FromPairs("store.rows.a", value.Int(1))
	b := state.FromPairs("store.rows.b", value.Int(1))
	if a.CodeAt(0) != b.CodeAt(0) {
		t.Fatalf("codes %d and %d differ; the test needs equal rows", a.CodeAt(0), b.CodeAt(0))
	}
	for _, h := range []Hash{nil, func(*state.State) uint64 { return 9 }} {
		st := NewWithHash(h)
		ra, addedA := st.Intern(a)
		rb, addedB := st.Intern(b)
		if !addedA || !addedB || ra == rb || st.Len() != 2 {
			t.Fatalf("interning %s and %s: added %v,%v, refs %v,%v, len %d; want two distinct states", a, b, addedA, addedB, ra, rb, st.Len())
		}
	}
}

func ExampleStore_Intern() {
	st := New()
	s := state.FromPairs("x", value.Int(3))
	_, added := st.Intern(s)
	_, addedAgain := st.Intern(state.FromPairs("x", value.Int(3)))
	fmt.Println(added, addedAgain, st.Len())
	// Output: true false 1
}

// TestInternCopyKeepsACopy: InternCopy stores a copy of a new state, never
// the state it was handed, so the caller may overwrite its scratch; an
// already-interned state comes back as the copy the store holds.
func TestInternCopyKeepsACopy(t *testing.T) {
	st := New()
	tmpl := mkState(0)
	ups := []state.PosUpdate{{Pos: 0, Val: value.Int(1)}}
	scratch := new(state.State)
	tmpl.OverwriteInto(scratch, ups)
	ref, held, added := st.InternCopy(scratch)
	if !added || held == scratch || !held.Equal(mkState(1)) {
		t.Fatalf("InternCopy of a new state: added=%v, held %v (the scratch itself: %v)", added, held, held == scratch)
	}
	tmpl.OverwriteInto(scratch, []state.PosUpdate{{Pos: 0, Val: value.Int(2)}})
	if !held.Equal(mkState(1)) {
		t.Fatalf("overwriting the scratch changed the held state to %v", held)
	}
	tmpl.OverwriteInto(scratch, ups)
	ref2, held2, added := st.InternCopy(scratch)
	if added || ref2 != ref || held2 != held {
		t.Fatalf("InternCopy of an interned state: added=%v, ref %v (want %v), held the stored copy: %v", added, ref2, ref, held2 == held)
	}
	if ref3, added := st.Intern(mkState(1)); added || ref3 != ref {
		t.Fatalf("Intern after InternCopy: added=%v, ref %v, want %v", added, ref3, ref)
	}
}

// TestInternCopyOfInternedAllocatesNothing pins the point of InternCopy: a
// successor the store already holds costs no allocation.
func TestInternCopyOfInternedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st := New()
	tmpl := mkState2(0, 0)
	var ups [][]state.PosUpdate
	for x := int64(0); x < 8; x++ {
		u := []state.PosUpdate{{Pos: 0, Val: value.Int(x)}, {Pos: 1, Val: value.Int(x + 1)}}
		tmpl.Resolve(u)
		ups = append(ups, u)
		st.Intern(tmpl.CloneWith(u))
	}
	scratch := new(state.State)
	tmpl.OverwriteInto(scratch, ups[0])
	if n := testing.AllocsPerRun(100, func() {
		for _, u := range ups {
			tmpl.OverwriteInto(scratch, u)
			if _, _, added := st.InternCopy(scratch); added {
				t.Fatal("an interned state was added again")
			}
		}
	}); n != 0 {
		t.Errorf("InternCopy of interned states allocates %v times per pass, want 0", n)
	}
}
