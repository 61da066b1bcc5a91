// Package store is the explicit-state checker's one state table: it
// interns states by their 64-bit fingerprint with collision-verified
// structural equality, and it records each state's final id once the
// explorer numbers it. The string serialization state.Key() never enters a
// hot path (it survives only in diagnostics and golden files).
//
// Many goroutines may intern concurrently, and exactly one of them is told
// a given state was new. A 64-bit fingerprint collision falls back to
// structural equality (state.Equal), so it can never merge distinct states,
// the failure mode that silently truncates state graphs in fingerprint-only
// checkers.
package store

import (
	"sync"
	"sync/atomic"

	"opentla/internal/state"
)

// Partitioning: the store's shards are the fingerprint ranges of the
// parallel level barrier of package ts, the top PartitionBits bits of a
// fingerprint. The barrier numbers each range on its own worker, so two
// workers may Number concurrently: they never touch the same shard.
// Concatenating the ranges in ascending partition order preserves the global
// fingerprint sort, which is what keeps the parallel numbering
// byte-identical to a single global sort. 64 shards also keep lock
// contention negligible for worker pools up to a few dozen goroutines.
const (
	// PartitionBits is log2 of NumPartitions.
	PartitionBits = 6
	// NumPartitions is the shard count, and the fingerprint-range fan-out of
	// the parallel barrier.
	NumPartitions = 1 << PartitionBits
	partMask      = NumPartitions - 1
)

// Partition maps a fingerprint to its shard and barrier partition: the top
// PartitionBits bits, so partition order is fingerprint order.
func Partition(fp uint64) int { return int(fp >> (64 - PartitionBits)) }

// Ref is an opaque handle to an interned state, stable for the lifetime of
// its Store: the state's slot in its shard, shifted past the shard index.
// Ref order is an implementation detail (arrival order within a shard);
// deterministic numbering is the caller's concern, recorded with Number.
type Ref uint64

// Hash maps a state to its dedup fingerprint. The default is
// (*state.State).Fingerprint; tests inject degenerate hashes to exercise
// the collision path.
type Hash func(*state.State) uint64

// entry is one interned state: its final id (-1 until numbered) and the
// slot of the next entry in its fingerprint bucket, plus one (0 ends the
// chain).
type entry struct {
	st   *state.State
	id   int32
	next int32
}

type shard struct {
	mu      sync.Mutex
	heads   map[uint64]int32 // fingerprint -> first slot of its bucket, plus one
	entries []entry          // slot-indexed
	// Lock and probe tallies, written under mu (see Counts).
	acquisitions, contended, probes int64
}

// lock takes the shard's mutex, counting the acquisition and whether it
// had to block (TryLock failed).
func (sh *shard) lock() {
	if !sh.mu.TryLock() {
		sh.mu.Lock()
		sh.contended++
	}
	sh.acquisitions++
}

// intern returns the Ref of a state equal to s in fp's bucket of shard
// part, counting each equality probe, or appends s there unnumbered and
// reports it added; mu must be held.
func (sh *shard) intern(part int, fp uint64, s *state.State) (Ref, bool) {
	i := sh.heads[fp]
	for ; i != 0; i = sh.entries[i-1].next {
		sh.probes++
		if sh.entries[i-1].st.Equal(s) {
			break
		}
	}
	added := i == 0
	if added {
		sh.entries = append(sh.entries, entry{st: s, id: -1, next: sh.heads[fp]})
		i = int32(len(sh.entries))
		sh.heads[fp] = i
	}
	return Ref(i-1)<<PartitionBits | Ref(part), added
}

// Store is a sharded, concurrency-safe interned-state table.
type Store struct {
	hash   Hash
	count  atomic.Int64
	shards [NumPartitions]shard
}

// Counts are a store's lock and probe tallies, the contention-analysis
// figures of the performance telemetry:
//
//   - Acquisitions: every time Intern takes a shard mutex;
//   - Contended: those where TryLock failed and the caller had to block —
//     the direct measure of shard contention — also per shard, so a skewed
//     fingerprint distribution is visible;
//   - Probes: structural-equality comparisons inside fingerprint buckets
//     while interning, the price of fingerprint collisions (and of dedup
//     hits, which probe once).
type Counts struct {
	Acquisitions, Contended, Probes int64
	ContendedByShard                [NumPartitions]int64
}

// Counts sums the shards' tallies.
func (st *Store) Counts() Counts {
	var c Counts
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		c.Acquisitions += sh.acquisitions
		c.Contended += sh.contended
		c.Probes += sh.probes
		c.ContendedByShard[i] = sh.contended
		sh.mu.Unlock()
	}
	return c
}

// New returns an empty store deduplicating by state.Fingerprint.
func New() *Store { return NewWithHash(nil) }

// NewWithHash returns an empty store deduplicating by the given hash (nil
// means state.Fingerprint). Injecting a colliding hash exercises the
// structural-equality fallback.
func NewWithHash(h Hash) *Store {
	if h == nil {
		h = (*state.State).Fingerprint
	}
	s := &Store{hash: h}
	for i := range s.shards {
		s.shards[i].heads = make(map[uint64]int32)
	}
	return s
}

// Intern deduplicates s into the store, returning its Ref and whether this
// call added it. For concurrent interns of equal states exactly one caller
// observes added == true. The caller must not mutate s afterwards (states
// are immutable by construction).
func (st *Store) Intern(s *state.State) (Ref, bool) {
	fp := st.hash(s)
	part := Partition(fp)
	sh := &st.shards[part]
	sh.lock()
	ref, added := sh.intern(part, fp, s)
	sh.mu.Unlock()
	if added {
		st.count.Add(1)
	}
	return ref, added
}

// Number records id as the final id of the state behind ref. Numbering
// takes no lock: calls on refs of one partition must be serialized, but
// calls on distinct partitions may run concurrently (the parallel barrier
// of package ts relies on this), and none may overlap an intern into the
// same partition.
func (st *Store) Number(ref Ref, id int) {
	st.shards[ref&partMask].entries[ref>>PartitionBits].id = int32(id)
}

// ID returns the final id recorded for ref, or -1 if it is not numbered
// yet. It takes no lock, so it must not overlap an intern or a Number into
// ref's partition.
func (st *Store) ID(ref Ref) int {
	return int(st.shards[ref&partMask].entries[ref>>PartitionBits].id)
}

// Get returns the final id of a state equal to s, if one is interned and
// numbered. It takes no lock and counts no probes: once interning and
// numbering pause (at a level barrier, or for good), any number of
// goroutines may Get concurrently.
func (st *Store) Get(s *state.State) (int, bool) {
	fp := st.hash(s)
	sh := &st.shards[Partition(fp)]
	for i := sh.heads[fp]; i != 0; i = sh.entries[i-1].next {
		if e := &sh.entries[i-1]; e.st.Equal(s) {
			return int(e.id), e.id >= 0
		}
	}
	return 0, false
}

// Len returns the number of interned states.
func (st *Store) Len() int { return int(st.count.Load()) }
