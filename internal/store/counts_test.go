package store

import (
	"sync"
	"testing"

	"opentla/internal/state"
	"opentla/internal/value"
)

// mkNamed builds a one-variable state with a chosen name, so tests control
// which states are structurally distinct.
func mkNamed(name string, v int64) *state.State {
	return state.FromPairs(name, value.Int(v))
}

func TestMetricsCountAcquisitionsAndProbes(t *testing.T) {
	st := New()
	a := mkNamed("a", 1)
	b := mkNamed("b", 2)
	st.Intern(a) // 1 acquisition, 0 probes (empty bucket)
	st.Intern(a) // 1 acquisition, 1 probe (dedup hit)
	st.Intern(b) // 1 acquisition

	c := st.Counts()
	if c.Acquisitions != 3 {
		t.Fatalf("acquisitions = %d, want 3", c.Acquisitions)
	}
	if c.Probes != 1 {
		t.Fatalf("probes = %d, want 1", c.Probes)
	}
}

func TestMetricsCollisionProbesOnCollidingHash(t *testing.T) {
	st := NewWithHash(func(*state.State) uint64 { return 42 })
	for i := 0; i < 4; i++ {
		st.Intern(mkNamed("x", int64(i)))
	}
	// Interning the i-th distinct state probes the i earlier entries:
	// 0+1+2+3 = 6.
	if got := st.Counts().Probes; got != 6 {
		t.Fatalf("probes = %d, want 6", got)
	}
	if st.Len() != 4 {
		t.Fatalf("collisions must not merge distinct states: len=%d", st.Len())
	}
}

func TestMetricsBatchCountsOnce(t *testing.T) {
	st := NewWithHash(func(*state.State) uint64 { return 7 }) // one shard, one bucket
	batch := []*state.State{mkNamed("x", 1), mkNamed("x", 2), mkNamed("x", 1)}
	fps := make([]uint64, 3)
	refs := make([]Ref, 3)
	added := make([]bool, 3)
	st.InternBatch(batch, fps, refs, added)
	// Everything maps to one shard: the lock is taken once per batch.
	if got := st.Counts().Acquisitions; got != 1 {
		t.Fatalf("acquisitions = %d, want 1 (one shard visit per batch)", got)
	}
	if refs[0] != refs[2] || !added[0] || added[2] {
		t.Fatalf("batch dedup semantics broke: refs=%v added=%v", refs, added)
	}
}

// TestMetricsContentionAndFlush: contention under concurrent interning is
// attributed to the shard it happened on, and reading the tallies neither
// resets nor bumps them.
func TestMetricsContentionAndFlush(t *testing.T) {
	st := NewWithHash(func(*state.State) uint64 { return 3 << (64 - PartitionBits) }) // all states → shard 3
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				st.Intern(mkNamed("v", int64(g*1000+i)))
			}
		}(g)
	}
	wg.Wait()

	c := st.Counts()
	if c.Contended != c.ContendedByShard[3] {
		t.Fatalf("single-shard contention must attribute to shard 3: total=%d shard3=%d", c.Contended, c.ContendedByShard[3])
	}
	if c.Acquisitions != goroutines*500 {
		t.Fatalf("acquisitions = %d, want %d", c.Acquisitions, goroutines*500)
	}
	if again := st.Counts(); again != c {
		t.Fatalf("reading the tallies changed them: %+v vs %+v", again, c)
	}
}

// TestNilMetricsPathUnchanged: counting is always on and leaves interning
// and lookup semantics alone; Get takes no lock, so it counts nothing.
func TestNilMetricsPathUnchanged(t *testing.T) {
	st := New()
	for i := 0; i < 100; i++ {
		ref, added := st.Intern(mkNamed("k", int64(i)))
		if !added {
			t.Fatalf("state %d should be new", i)
		}
		st.Number(ref, i)
	}
	if id, ok := st.Get(mkNamed("k", 50)); !ok || id != 50 {
		t.Fatalf("Get must find the numbered state: %d,%v", id, ok)
	}
	if st.Len() != 100 {
		t.Fatalf("len = %d, want 100", st.Len())
	}
	if c := st.Counts(); c.Acquisitions != 100 || c.Contended != 0 {
		t.Fatalf("counts = %+v, want 100 uncontended acquisitions", c)
	}
}
