// Package store is the explicit-state checker's one state table: it
// interns states by a 64-bit hash of their value codes (state.RowHash) with
// collision-verified structural equality, and it records each state's final
// id once the explorer numbers it. The string serialization state.Key()
// never enters a hot path (it survives only in diagnostics and golden
// files), and neither does the persisted fingerprint: the explorer computes
// that once per new state, to order its numbering.
//
// Many goroutines may intern concurrently, and exactly one of them is told
// a given state was new. A 64-bit hash collision falls back to structural
// equality (state.Equal), so it can never merge distinct states, the
// failure mode that silently truncates state graphs in fingerprint-only
// checkers.
package store

import (
	"sync"
	"sync/atomic"

	"opentla/internal/state"
)

// Partitioning: a state's shard is Partition of its store hash. The
// parallel level barrier of package ts uses the same function on the
// fingerprint to split each level into fingerprint ranges, which it numbers
// on separate workers; concatenating the ranges in ascending partition
// order preserves the global fingerprint sort, which keeps the parallel
// numbering byte-identical to a single global sort. The two partitions of a
// state are unrelated, so two workers may Number into one shard at once:
// they write distinct entries. 64 shards also keep lock contention
// negligible for worker pools up to a few dozen goroutines.
const (
	// PartitionBits is log2 of NumPartitions.
	PartitionBits = 6
	// NumPartitions is the shard count, and the fingerprint-range fan-out of
	// the parallel barrier.
	NumPartitions = 1 << PartitionBits
	partMask      = NumPartitions - 1
)

// Partition maps a 64-bit hash to its top PartitionBits bits: a state's
// shard, from its store hash, and its barrier partition, from its
// fingerprint, so that partition order is fingerprint order.
func Partition(h uint64) int { return int(h >> (64 - PartitionBits)) }

// Ref is an opaque handle to an interned state, stable for the lifetime of
// its Store: the state's slot in its shard, shifted past the shard index.
// Ref order is an implementation detail (arrival order within a shard);
// deterministic numbering is the caller's concern, recorded with Number.
type Ref uint64

// Hash maps a state to its dedup hash. The default is
// (*state.State).RowHash; tests inject degenerate hashes to exercise the
// collision path.
type Hash func(*state.State) uint64

// entry is one interned state: its final id (-1 until numbered) and the
// slot of the next entry in its hash bucket, plus one (0 ends the chain).
type entry struct {
	st   *state.State
	id   int32
	next int32
}

type shard struct {
	mu      sync.Mutex
	heads   map[uint64]int32 // hash -> first slot of its bucket, plus one
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

// find returns the slot, plus one, of a state equal to s in h's bucket,
// counting each equality probe, or 0 if there is none; mu must be held.
func (sh *shard) find(h uint64, s *state.State) int32 {
	i := sh.heads[h]
	for ; i != 0; i = sh.entries[i-1].next {
		sh.probes++
		if sh.entries[i-1].st.Equal(s) {
			break
		}
	}
	return i
}

// insert appends s unnumbered to h's bucket and returns its slot, plus one;
// mu must be held.
func (sh *shard) insert(h uint64, s *state.State) int32 {
	sh.entries = append(sh.entries, entry{st: s, id: -1, next: sh.heads[h]})
	i := int32(len(sh.entries))
	sh.heads[h] = i
	return i
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
//     hash distribution is visible;
//   - Probes: structural-equality comparisons inside hash buckets while
//     interning: one per dedup hit, plus one per row-hash collision
//     between distinct states.
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

// New returns an empty store deduplicating by state.RowHash.
func New() *Store { return NewWithHash(nil) }

// NewWithHash returns an empty store deduplicating by the given hash (nil
// means state.RowHash). Injecting a colliding hash exercises the
// structural-equality fallback.
func NewWithHash(h Hash) *Store {
	if h == nil {
		h = (*state.State).RowHash
	}
	s := &Store{hash: h}
	for i := range s.shards {
		s.shards[i].heads = make(map[uint64]int32)
	}
	return s
}

// Intern deduplicates s into the store, returning its Ref and whether this
// call added it. For concurrent interns of equal states exactly one caller
// observes added == true. The store keeps s itself, so the caller must not
// mutate s afterwards (states are immutable by construction).
func (st *Store) Intern(s *state.State) (Ref, bool) {
	ref, _, added := st.intern(s, false)
	return ref, added
}

// InternCopy is Intern for a state the caller goes on to overwrite, such as
// a successor built in a scratch row: it probes with s and stores a copy of
// s only when s is new, so a state already interned costs no allocation. It
// returns the state the store holds, which is that copy when added is true.
func (st *Store) InternCopy(s *state.State) (ref Ref, held *state.State, added bool) {
	return st.intern(s, true)
}

// intern is Intern, storing a copy of s when clone is set.
func (st *Store) intern(s *state.State, clone bool) (Ref, *state.State, bool) {
	h := st.hash(s)
	part := Partition(h)
	sh := &st.shards[part]
	sh.lock()
	i := sh.find(h, s)
	added := i == 0
	if added {
		if clone {
			s = s.Clone()
		}
		i = sh.insert(h, s)
	} else {
		s = sh.entries[i-1].st
	}
	sh.mu.Unlock()
	if added {
		st.count.Add(1)
	}
	return Ref(i-1)<<PartitionBits | Ref(part), s, added
}

// Number records id as the final id of the state behind ref. Numbering
// takes no lock and writes only ref's own entry: calls on distinct refs may
// run concurrently, even into one shard (the parallel barrier of package ts
// relies on this), but none may overlap an intern into ref's shard, which
// may move the entries.
func (st *Store) Number(ref Ref, id int) {
	st.shards[ref&partMask].entries[ref>>PartitionBits].id = int32(id)
}

// ID returns the final id recorded for ref, or -1 if it is not numbered
// yet. It takes no lock, so it must not overlap an intern into ref's shard
// or a Number of ref.
func (st *Store) ID(ref Ref) int {
	return int(st.shards[ref&partMask].entries[ref>>PartitionBits].id)
}

// Get returns the final id of a state equal to s, if one is interned and
// numbered. It takes no lock and counts no probes: once interning and
// numbering pause (at a level barrier, or for good), any number of
// goroutines may Get concurrently.
func (st *Store) Get(s *state.State) (int, bool) {
	h := st.hash(s)
	sh := &st.shards[Partition(h)]
	for i := sh.heads[h]; i != 0; i = sh.entries[i-1].next {
		if e := &sh.entries[i-1]; e.st.Equal(s) {
			return int(e.id), e.id >= 0
		}
	}
	return 0, false
}

// Len returns the number of interned states.
func (st *Store) Len() int { return int(st.count.Load()) }
