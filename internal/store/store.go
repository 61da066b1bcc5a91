// Package store provides interned-state storage for explicit-state model
// checking: states are deduplicated by their 64-bit fingerprint with
// collision-verified structural equality, so the string serialization
// state.Key() never enters a hot path (it survives only in diagnostics and
// golden files).
//
// Two families of containers are provided:
//
//   - Store: a sharded, concurrency-safe interner used by the parallel
//     frontier exploration of package ts. Interning returns a stable Ref;
//     many goroutines may intern concurrently and exactly one of them is
//     told a given state was new.
//   - Index and Set: single-goroutine fingerprint-keyed id maps and
//     membership sets for the sequential portions of the checker
//     (successor dedup, generator audits, final graph lookup).
//
// All containers fall back to structural equality (state.Equal) when two
// distinct states share a fingerprint, so a 64-bit collision can never
// merge distinct states — the failure mode that silently truncates state
// graphs in fingerprint-only checkers.
package store

import (
	"sync"
	"sync/atomic"

	"opentla/internal/state"
)

// shardBits is log2 of the shard count. 64 shards keeps lock contention
// negligible for worker pools up to a few dozen goroutines.
const (
	shardBits = 6
	numShards = 1 << shardBits
	shardMask = numShards - 1
)

// Ref is an opaque handle to an interned state, stable for the lifetime of
// its Store. Refs order is an implementation detail (arrival order within a
// shard); deterministic numbering is the caller's concern.
type Ref uint64

// Hash maps a state to its dedup fingerprint. The default is
// (*state.State).Fingerprint; tests inject degenerate hashes to exercise
// the collision path.
type Hash func(*state.State) uint64

type entry struct {
	st  *state.State
	ref Ref
}

type shard struct {
	mu      sync.Mutex
	buckets map[uint64][]entry
	states  []*state.State // slot-indexed backing store for Ref resolution
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

// Store is a sharded, concurrency-safe interned-state store.
type Store struct {
	hash   Hash
	count  atomic.Int64
	shards [numShards]shard
}

// Counts are a store's lock and probe tallies, the contention-analysis
// figures of the performance telemetry:
//
//   - Acquisitions: every time a shard mutex is taken by Intern, a batch
//     shard visit, or Lookup;
//   - Contended: those where TryLock failed and the caller had to block —
//     the direct measure of shard contention — also per shard, so a skewed
//     fingerprint distribution is visible;
//   - Probes: structural-equality comparisons inside fingerprint buckets
//     while interning, the price of fingerprint collisions (and of dedup
//     hits, which probe once).
type Counts struct {
	Acquisitions, Contended, Probes int64
	ContendedByShard                [numShards]int64
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
		s.shards[i].buckets = make(map[uint64][]entry)
	}
	return s
}

// Intern deduplicates s into the store, returning its Ref and whether this
// call added it. For concurrent interns of equal states exactly one caller
// observes added == true. The caller must not mutate s afterwards (states
// are immutable by construction).
func (st *Store) Intern(s *state.State) (Ref, bool) {
	fp := st.hash(s)
	sh := &st.shards[fp&shardMask]
	sh.lock()
	for _, e := range sh.buckets[fp] {
		sh.probes++
		if e.st.Equal(s) {
			sh.mu.Unlock()
			return e.ref, false
		}
	}
	ref := Ref(len(sh.states))<<shardBits | Ref(fp&shardMask)
	sh.states = append(sh.states, s)
	sh.buckets[fp] = append(sh.buckets[fp], entry{st: s, ref: ref})
	sh.mu.Unlock()
	st.count.Add(1)
	return ref, true
}

// noRef marks an unprocessed slot during batch interning; it can never be a
// real Ref (a real slot index would have to exhaust the address space).
const noRef = ^Ref(0)

// InternBatch deduplicates a batch of states in one pass, filling refs and
// added (all four slices must share the batch's length; fps is scratch for
// the precomputed hashes). The batch is processed shard-by-shard so each
// shard's lock is taken at most once per call instead of once per state —
// the batched-interning path of the parallel frontier, where a state's
// successor list lands in few shards and per-state locking dominates.
// Semantics match len(batch) Intern calls in order: intra-batch duplicates
// resolve to one Ref with added reported only for the first occurrence.
func (st *Store) InternBatch(batch []*state.State, fps []uint64, refs []Ref, added []bool) {
	for i, s := range batch {
		fps[i] = st.hash(s)
		refs[i] = noRef
	}
	newCount := 0
	for i := range batch {
		if refs[i] != noRef {
			continue
		}
		shardIdx := fps[i] & shardMask
		sh := &st.shards[shardIdx]
		sh.lock()
		for j := i; j < len(batch); j++ {
			if refs[j] != noRef || fps[j]&shardMask != shardIdx {
				continue
			}
			fp, s := fps[j], batch[j]
			found := false
			for _, e := range sh.buckets[fp] {
				sh.probes++
				if e.st.Equal(s) {
					refs[j], added[j] = e.ref, false
					found = true
					break
				}
			}
			if !found {
				ref := Ref(len(sh.states))<<shardBits | Ref(shardIdx)
				sh.states = append(sh.states, s)
				sh.buckets[fp] = append(sh.buckets[fp], entry{st: s, ref: ref})
				refs[j], added[j] = ref, true
				newCount++
			}
		}
		sh.mu.Unlock()
	}
	if newCount > 0 {
		st.count.Add(int64(newCount))
	}
}

// Dense returns a small-integer encoding of the Ref suitable for direct
// slice indexing: refs encode slot<<shardBits|shard, so Dense values are
// unique per store and bounded by numShards × (largest shard's size) —
// close to the interned-state count when fingerprints spread evenly. The
// frontier's barrier uses this to replace its ref→final-id map with a flat
// array.
func (r Ref) Dense() int { return int(r) }

// Lookup returns the Ref of a state equal to s, if interned.
func (st *Store) Lookup(s *state.State) (Ref, bool) {
	fp := st.hash(s)
	sh := &st.shards[fp&shardMask]
	sh.lock()
	defer sh.mu.Unlock()
	for _, e := range sh.buckets[fp] {
		if e.st.Equal(s) {
			return e.ref, true
		}
	}
	return 0, false
}

// State resolves a Ref produced by Intern.
func (st *Store) State(r Ref) *state.State {
	sh := &st.shards[r&shardMask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.states[r>>shardBits]
}

// Len returns the number of interned states.
func (st *Store) Len() int { return int(st.count.Load()) }

// Partitioning: the parallel level barrier of package ts splits a level's
// newly discovered states into NumPartitions fingerprint ranges (the top
// PartitionBits bits) and numbers each range on its own worker. Index shards
// its buckets by the same function, so two barrier partitions may Put
// concurrently — they can never touch the same shard. Concatenating the
// ranges in ascending partition order preserves the global fingerprint sort,
// which is what keeps the parallel numbering byte-identical to a single
// global sort.
const (
	// PartitionBits is log2 of NumPartitions.
	PartitionBits = 6
	// NumPartitions is the fingerprint-range fan-out of the parallel barrier
	// (and the shard count of Index).
	NumPartitions = 1 << PartitionBits
)

// Partition maps a fingerprint to its barrier partition / Index shard: the
// top PartitionBits bits, so partition order is fingerprint order.
func Partition(fp uint64) int { return int(fp >> (64 - PartitionBits)) }

// Index maps states to caller-chosen integer ids, keyed by fingerprint with
// structural-equality collision verification. Buckets are sharded by
// Partition(fingerprint): Puts within one partition must be serialized, but
// Puts in distinct partitions may run concurrently (the parallel barrier of
// package ts relies on this). Gets must not overlap Puts; once construction
// pauses at a barrier, any number of goroutines may Get concurrently (the
// monitor-product workers resolve base-state ids against the finished base
// graph's index, and the frontier workers probe committed states mid-level).
type Index struct {
	hash   Hash
	shards [NumPartitions]idxShard
}

type idxShard struct {
	buckets map[uint64][]idEntry
	n       int
}

type idEntry struct {
	st *state.State
	id int
}

// NewIndex returns an empty index keyed by state.Fingerprint.
func NewIndex() *Index { return NewIndexWithHash(nil) }

// NewIndexWithHash returns an empty index keyed by the given hash (nil
// means state.Fingerprint). Shard maps allocate lazily on first Put, so
// small single-partition indexes (sets, audits) pay for one map.
func NewIndexWithHash(h Hash) *Index {
	if h == nil {
		h = (*state.State).Fingerprint
	}
	return &Index{hash: h}
}

// NewIndexFrom builds an index mapping each state to its slice position,
// the lookup structure of a graph reconstructed from a snapshot (state ids
// are their positions in the snapshot's final-id ordering).
func NewIndexFrom(states []*state.State) *Index {
	ix := NewIndex()
	for i, s := range states {
		ix.Put(s, i)
	}
	return ix
}

// Put records id for s. A state equal to s must not already be present.
// Puts for states in the same partition must be serialized; Puts in
// distinct partitions may run concurrently (see the Index doc).
func (ix *Index) Put(s *state.State, id int) {
	fp := ix.hash(s)
	sh := &ix.shards[Partition(fp)]
	if sh.buckets == nil {
		sh.buckets = make(map[uint64][]idEntry)
	}
	sh.buckets[fp] = append(sh.buckets[fp], idEntry{st: s, id: id})
	sh.n++
}

// Get returns the id recorded for a state equal to s.
func (ix *Index) Get(s *state.State) (int, bool) {
	fp := ix.hash(s)
	for _, e := range ix.shards[Partition(fp)].buckets[fp] {
		if e.st.Equal(s) {
			return e.id, true
		}
	}
	return 0, false
}

// Len returns the number of states in the index.
func (ix *Index) Len() int {
	n := 0
	for i := range ix.shards {
		n += ix.shards[i].n
	}
	return n
}

// Set is a fingerprint-keyed state membership set with structural-equality
// collision fallback, replacing string-keyed map[string]bool sets in hot
// paths. Not safe for concurrent use.
type Set struct {
	ix *Index
	n  int
}

// NewSet returns an empty set keyed by state.Fingerprint.
func NewSet() *Set { return &Set{ix: NewIndex()} }

// NewSetWithHash returns an empty set keyed by the given hash.
func NewSetWithHash(h Hash) *Set { return &Set{ix: NewIndexWithHash(h)} }

// Add inserts s and reports whether it was newly added.
func (se *Set) Add(s *state.State) bool {
	if _, ok := se.ix.Get(s); ok {
		return false
	}
	se.ix.Put(s, se.n)
	se.n++
	return true
}

// Has reports membership of a state equal to s.
func (se *Set) Has(s *state.State) bool {
	_, ok := se.ix.Get(s)
	return ok
}

// Len returns the number of states in the set.
func (se *Set) Len() int { return se.n }
