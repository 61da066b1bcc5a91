package ts

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/value"
)

// memCache is an in-memory GraphCache for exercising the ts-side cache seam
// without importing internal/cache (which imports ts).
type memCache struct {
	snaps, ckpts       map[string]*Snapshot
	loadErr, ckLoadErr error
	hits, misses       int
	ckLoads, ckStores  int
}

func newMemCache() *memCache {
	return &memCache{snaps: map[string]*Snapshot{}, ckpts: map[string]*Snapshot{}}
}

func (c *memCache) Load(desc string) (*Snapshot, error) {
	if c.loadErr != nil {
		return nil, c.loadErr
	}
	if s, ok := c.snaps[desc]; ok {
		c.hits++
		return s, nil
	}
	c.misses++
	return nil, nil
}

func (c *memCache) Store(desc string, snap *Snapshot) error {
	c.snaps[desc] = snap
	delete(c.ckpts, desc)
	return nil
}

func (c *memCache) LoadCheckpoint(desc string) (*Snapshot, error) {
	c.ckLoads++
	if c.ckLoadErr != nil {
		return nil, c.ckLoadErr
	}
	return c.ckpts[desc], nil
}

func (c *memCache) StoreCheckpoint(desc string, snap *Snapshot) error {
	c.ckpts[desc] = snap
	c.ckStores++
	return nil
}

func TestCanonicalDescStable(t *testing.T) {
	d1 := counterSystem(3).CanonicalDesc()
	d2 := counterSystem(3).CanonicalDesc()
	if d1 != d2 {
		t.Error("identical systems should have identical descriptions")
	}

	// Name and Workers are not part of graph identity.
	renamed := counterSystem(3)
	renamed.Name = "other"
	renamed.Workers = 7
	if d3 := renamed.CanonicalDesc(); d3 != d1 {
		t.Error("Name/Workers should not affect the description")
	}

	// A different domain is a different system.
	if d4 := counterSystem(4).CanonicalDesc(); d4 == d1 {
		t.Error("different domains should yield different descriptions")
	}
}

// TestValidateRejectsDefLessAction: an action with no definition has no
// semantics to derive successors from or to content-address, so the system
// is rejected before any cache lookup or exploration.
func TestValidateRejectsDefLessAction(t *testing.T) {
	c := counterComponent(3)
	c.Actions[0].Def = nil
	sys := &System{
		Name:       "opaque",
		Components: []*spec.Component{c},
		Domains:    map[string][]value.Value{"x": value.Ints(0, 3)},
		Cache:      newMemCache(),
	}
	if err := sys.Validate(); err == nil || !strings.Contains(err.Error(), "no definition") {
		t.Fatalf("Validate = %v, want a missing-definition error", err)
	}
	if _, err := sys.Build(); err == nil {
		t.Fatal("Build accepted an action without a definition")
	}
}

func TestBuildWarmHitSkipsExploration(t *testing.T) {
	c := newMemCache()
	cold := counterSystem(3)
	cold.Cache = c
	gCold, err := cold.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.misses != 1 || len(c.snaps) != 1 {
		t.Fatalf("cold build: misses=%d snaps=%d, want 1/1", c.misses, len(c.snaps))
	}

	// The warm build hits the cache (despite the different Name and worker
	// count) and must not consume any state budget: the graph comes from the
	// snapshot, not from exploration.
	warm := counterSystem(3)
	warm.Name = "renamed"
	warm.Workers = 4
	warm.Cache = c
	m := engine.NoLimit()
	gWarm, err := warm.BuildWith(m)
	if err != nil {
		t.Fatal(err)
	}
	if c.hits != 1 {
		t.Fatalf("warm build: hits=%d, want 1", c.hits)
	}
	if st := m.Stats(); st.States != 0 {
		t.Errorf("warm build consumed %d states of budget, want 0", st.States)
	}
	if signature(gWarm) != signature(gCold) {
		t.Error("warm graph differs from cold graph")
	}
}

func TestCorruptCacheFallsBackToColdBuild(t *testing.T) {
	// A cache that errors on every load behaves as a miss.
	c := newMemCache()
	c.loadErr = errors.New("bit rot")
	sys := counterSystem(3)
	sys.Cache = c
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", g.NumStates())
	}

	// A decodable but structurally invalid snapshot is also a miss.
	c2 := newMemCache()
	bad := counterSystem(3)
	bad.Cache = c2
	desc := bad.CanonicalDesc()
	c2.snaps[desc] = &Snapshot{Complete: true, States: g.States, Inits: []int{99}, Offsets: []int{0}, Targets: nil}
	g2, err := bad.Build()
	if err != nil {
		t.Fatal(err)
	}
	if signature(g2) != signature(g) {
		t.Error("fallback build differs from clean build")
	}
	// The cold build replaces the invalid entry with a valid one.
	if !validSnapshot(c2.snaps[desc], true) {
		t.Error("cold build did not overwrite the invalid cache entry")
	}
}

func TestValidSnapshotBounds(t *testing.T) {
	s0 := state.FromPairs("x", value.Int(0))
	s1 := state.FromPairs("x", value.Int(1))
	good := &Snapshot{
		Complete: true,
		States:   []*state.State{s0, s1},
		Inits:    []int{0},
		Offsets:  []int{0, 2, 3},
		Targets:  []int32{0, 1, 1},
	}
	if !validSnapshot(good, true) {
		t.Fatal("well-formed snapshot rejected")
	}
	for name, snap := range map[string]*Snapshot{
		"nil":               nil,
		"wrong kind":        {Complete: false, States: good.States, Offsets: good.Offsets, Targets: good.Targets},
		"short offsets":     {Complete: true, States: good.States, Offsets: []int{0, 2}, Targets: []int32{0, 1}},
		"nonzero base":      {Complete: true, States: good.States, Offsets: []int{1, 2, 3}, Targets: []int32{0, 1, 1}},
		"decreasing":        {Complete: true, States: good.States, Offsets: []int{0, 2, 1}, Targets: []int32{0}},
		"target range":      {Complete: true, States: good.States, Offsets: []int{0, 1, 2}, Targets: []int32{0, 9}},
		"negative target":   {Complete: true, States: good.States, Offsets: []int{0, 1, 2}, Targets: []int32{0, -1}},
		"init range":        {Complete: true, States: good.States, Inits: []int{5}, Offsets: []int{0, 1, 2}, Targets: []int32{0, 1}},
		"off/target length": {Complete: true, States: good.States, Offsets: []int{0, 1, 2}, Targets: []int32{0, 1, 1}},
	} {
		if validSnapshot(snap, true) {
			t.Errorf("%s: invalid snapshot accepted", name)
		}
	}
	ck := &Snapshot{Level: 1, States: good.States, Inits: []int{0}, Offsets: []int{0, 2}, Targets: []int32{0, 1}}
	if !validSnapshot(ck, false) {
		t.Error("well-formed checkpoint rejected")
	}
	ck.Level = -1
	if validSnapshot(ck, false) {
		t.Error("negative-level checkpoint accepted")
	}
}

// TestCheckpointResumeDeterministic is the resume soundness test: a build
// interrupted by budget exhaustion, checkpointed, and resumed must produce a
// graph identical to an uninterrupted build — including its snapshot, so the
// resumed run's cache entry is byte-identical too.
func TestCheckpointResumeDeterministic(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		mk := func() *System {
			sys := pairSystem(4)
			sys.Workers = workers
			return sys
		}
		oneShot := mk()
		gFull, err := oneShot.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := signature(gFull)

		c := newMemCache()
		interrupted := mk()
		interrupted.Cache = c
		_, err = interrupted.BuildWith(engine.Budget{MaxStates: 8}.Meter())
		var be *engine.BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: want budget exhaustion, got %v", workers, err)
		}
		if c.ckStores == 0 {
			t.Fatalf("workers=%d: exhaustion saved no checkpoint", workers)
		}

		resumed := mk()
		resumed.Cache = c
		m := engine.NoLimit()
		gRes, err := resumed.BuildWith(m)
		if err != nil {
			t.Fatalf("workers=%d: resume failed: %v", workers, err)
		}
		if got := signature(gRes); got != want {
			t.Errorf("workers=%d: resumed graph differs from one-shot:\n--- one-shot ---\n%s--- resumed ---\n%s",
				workers, want, got)
		}
		// Restored states bypass the meter: the resumed run pays only for the
		// states it discovered itself.
		if st := m.Stats(); st.States >= gRes.NumStates() {
			t.Errorf("workers=%d: resumed run metered %d states, graph has %d — restored work was double-billed",
				workers, st.States, gRes.NumStates())
		}
		// The completed resume stores the full graph and clears the checkpoint.
		desc := resumed.CanonicalDesc()
		if _, ok := c.ckpts[desc]; ok {
			t.Errorf("workers=%d: checkpoint not cleared after completion", workers)
		}
		if _, ok := c.snaps[desc]; !ok {
			t.Errorf("workers=%d: completed resume did not store the graph", workers)
		}
	}
}

// TestCompleteEntryWinsOverCheckpoint plants a valid checkpoint beside the
// complete entry of the same key, as a crash between a store and its
// checkpoint removal leaves it: a build is served by the entry and never
// loads the checkpoint. Without the entry, the same checkpoint is loaded
// and resumed.
func TestCompleteEntryWinsOverCheckpoint(t *testing.T) {
	c := newMemCache()
	sys := pairSystem(4)
	sys.Cache = c
	if _, err := sys.BuildWith(engine.Budget{MaxStates: 8}.Meter()); err == nil {
		t.Fatal("want budget exhaustion")
	}
	desc := sys.CanonicalDesc()
	ck := c.ckpts[desc]
	if ck == nil {
		t.Fatal("exhaustion saved no checkpoint")
	}
	full, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	c.ckpts[desc] = ck // the stale checkpoint
	loads := c.ckLoads
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	if c.ckLoads != loads {
		t.Errorf("a build served by the complete entry loaded the checkpoint %d times", c.ckLoads-loads)
	}
	if signature(g) != signature(full) {
		t.Error("graph served beside a stale checkpoint differs")
	}

	delete(c.snaps, desc)
	m := engine.NoLimit()
	if _, err := sys.BuildWith(m); err != nil {
		t.Fatal(err)
	}
	if c.ckLoads != loads+1 {
		t.Errorf("a miss loaded the checkpoint %d times, want 1", c.ckLoads-loads)
	}
	if st := m.Stats(); st.States >= full.NumStates() {
		t.Errorf("a miss beside the checkpoint metered %d of %d states: it did not resume", st.States, full.NumStates())
	}
}

func TestResumeWithCorruptCheckpointColdBuilds(t *testing.T) {
	c := newMemCache()
	c.ckLoadErr = errors.New("torn file")
	sys := counterSystem(3)
	sys.Cache = c
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", g.NumStates())
	}
}

func TestProductWarmHit(t *testing.T) {
	mon := func() *Monitor {
		below := form.Lt(form.PrimedVar("x"), form.IntC(3))
		return SafetyMonitor("ok", form.Lt(form.Var("x"), form.IntC(3)),
			[]form.Expr{form.Square(below, form.Var("x"))})
	}
	c := newMemCache()
	build := func() *Graph {
		sys := pairSystem(3)
		sys.Cache = c
		g, err := sys.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Product(g, []*Monitor{mon()})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := build()
	if len(c.snaps) != 2 {
		t.Fatalf("stored %d snapshots, want 2 (base + product)", len(c.snaps))
	}
	hits := c.hits
	p2 := build()
	if c.hits != hits+2 {
		t.Fatalf("warm run hit %d times, want 2 (base + product)", c.hits-hits)
	}
	if signature(p2) != signature(p1) {
		t.Error("warm product differs from cold product")
	}
}

func TestProductWithoutDescIsNotCached(t *testing.T) {
	c := newMemCache()
	sys := counterSystem(2)
	sys.Cache = c
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A hand-rolled monitor without Desc cannot be content-addressed.
	opaque := &Monitor{
		Var:    "$m",
		Domain: value.Bools(),
		Init: func(s *state.State) ([]value.Value, error) {
			return []value.Value{value.True}, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			return []value.Value{value.True}, nil
		},
	}
	if _, err := Product(g, []*Monitor{opaque}); err != nil {
		t.Fatal(err)
	}
	if len(c.snaps) != 1 {
		t.Errorf("stored %d snapshots, want 1 (base only; opaque product must not be cached)", len(c.snaps))
	}
}

// TestSnapshotRoundTripThroughGraph rebuilds a graph from its own snapshot
// and checks the reconstruction is observably identical, including the index
// (ID lookups).
func TestSnapshotRoundTripThroughGraph(t *testing.T) {
	sys := pairSystem(3)
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap := g.Snapshot()
	if !validSnapshot(snap, true) {
		t.Fatal("graph snapshot fails validation")
	}
	g2 := graphFromSnapshot(sys, sys.Ctx(), engine.NoLimit(), snap, nil)
	if signature(g2) != signature(g) {
		t.Error("reconstructed graph differs")
	}
	for id, s := range g.States {
		if got := g2.ID(s); got != id {
			t.Fatalf("reconstructed index: ID(%s) = %d, want %d", s, got, id)
		}
	}
}

func TestCheckpointSnapshotCopiesCommittedPrefix(t *testing.T) {
	res := &exploreResult{
		states: []*state.State{
			state.FromPairs("x", value.Int(0)),
			state.FromPairs("x", value.Int(1)),
			state.FromPairs("x", value.Int(2)),
		},
		inits: []int{0},
	}
	offsets := []int{0, 2, 4}
	targets := []int32{0, 1, 1, 2}
	snap := checkpointSnapshot(res, offsets, targets, nil, 2, 1, 1)
	if snap.Complete {
		t.Error("checkpoint marked complete")
	}
	if len(snap.States) != 2 || snap.Rows() != 1 || snap.Level != 1 {
		t.Errorf("snapshot = %d states, %d rows, level %d; want 2, 1, 1", len(snap.States), snap.Rows(), snap.Level)
	}
	if fmt.Sprint(snap.Targets) != "[0 1]" {
		t.Errorf("targets = %v, want [0 1]", snap.Targets)
	}
	if !validSnapshot(snap, false) {
		t.Error("checkpoint fails validation")
	}
}
