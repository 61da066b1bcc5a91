package form

import (
	"sync"
	"sync/atomic"

	"opentla/internal/state"
	"opentla/internal/value"
)

// Code-keyed memos. A compiled subterm that reads few state slots — a slot
// is a (layout position, primed?) pair — is a function of those slots'
// value codes (state.CodeAt): dictionaries are per variable name and live
// for the process, and a compiled closure only ever sees states over its
// own layout. So the compiler wraps such a subterm in a table indexed by
// the codes, and q' = Tail(q) on a step already seen becomes two code reads
// and a table load instead of a sequence rebuild and a comparison.
//
// A table is indexed by raw codes, so its size follows the largest code a
// slot's variable has been given in the process, not the number of values
// this subterm meets: memos pay where those codes stay small enough for
// maxMemoCells and steps repeat.
//
// A miss runs the same compiled closure and publishes its result and
// error, so there is one evaluation path: the memo only remembers what the
// closure said. Every error a memoized closure can return is errCompiled
// (subterms that interpret anything are never memoized, see slotSet), which
// CompilePred re-derives through the interpreter as before.

const (
	// maxMemoSlots is the most slots a memoized subterm may read.
	maxMemoSlots = 3
	// maxMemoCells caps one memo table; a step whose codes would need a
	// larger table runs the closure unmemoized.
	maxMemoCells = 1 << 16
)

// slot is a state slot read by compiled code: the layout position shifted
// left once, with the low bit set when the successor state is read.
type slot uint32

func mkSlot(pos int, primed bool) slot {
	s := slot(pos) << 1
	if primed {
		s |= 1
	}
	return s
}

// slotSet is what a compiled subterm reads, gathered bottom-up as the
// compiler returns from each node (see compiler.pred and compiler.val).
type slotSet struct {
	n     int
	slots [maxMemoSlots]slot
	// to: the subterm reads the successor state, if only to fail without
	// one (a prime with no variable under it).
	to bool
	// many: more than maxMemoSlots slots, or an interpreted part whose
	// reads are unknown; such a subterm is never memoized.
	many bool
}

func (s *slotSet) add(sl slot) {
	s.to = s.to || sl&1 != 0
	for i := 0; i < s.n; i++ {
		if s.slots[i] == sl {
			return
		}
	}
	if s.n == maxMemoSlots {
		s.many = true
		return
	}
	s.slots[s.n] = sl
	s.n++
}

// union adds the reads of t to s.
func (s *slotSet) union(t *slotSet) {
	for i := 0; i < t.n; i++ {
		s.add(t.slots[i])
	}
	s.to = s.to || t.to
	s.many = s.many || t.many
}

// memoKey holds the codes of a memo's slots, in slot order; unused entries
// are 0.
type memoKey [maxMemoSlots]uint32

// memoResult is one published evaluation: b for a predicate, v for a
// value, and the error either returned.
type memoResult struct {
	v   value.Value
	b   bool
	err error
}

// Predicate memos publish one of these two instead of allocating.
var (
	memoTrue  = &memoResult{b: true}
	memoFalse = &memoResult{}
)

// memoTable is a dense table over the codes seen so far: slot i's code
// ranges over [0, dim[i]), and the cell of key k is
// k[0] + dim[0]·(k[1] + dim[1]·k[2]). Unused slots have dim 1 and code 0.
// A table is never written after it is published except through its cells,
// which are atomic; growing publishes a new table.
type memoTable struct {
	dim   [maxMemoSlots]uint32
	cells []atomic.Pointer[memoResult]
}

func (t *memoTable) index(k *memoKey) (uint32, bool) {
	if k[0] >= t.dim[0] || k[1] >= t.dim[1] || k[2] >= t.dim[2] {
		return 0, false
	}
	return k[0] + t.dim[0]*(k[1]+t.dim[1]*k[2]), true
}

// memo is the table of one compiled subterm. It is allocated empty at
// compile time; its table is allocated at the first miss and grown to the
// codes later misses bring, so it costs memory only for what evaluation
// actually meets, and it lives as long as the compiled closure.
//
// Concurrency: readers load the table and a cell atomically and never
// lock. A miss stores into the cell of the table it found; only growth
// takes mu, and it copies every published cell into the new table before
// publishing it. A store racing with a growth may land in the old table
// and be lost, which costs one later miss: every cell of a key holds the
// same answer, so no reader can see a wrong one.
type memo struct {
	reads slotSet
	mu    sync.Mutex
	tab   atomic.Pointer[memoTable]
}

// key reads the codes of m's slots on st. It reports false when the
// subterm reads a successor state and st has none: the closure then fails
// whatever the codes, so it is run unmemoized.
func (m *memo) key(st state.Step) (memoKey, bool) {
	var k memoKey
	if m.reads.to && st.To == nil {
		return k, false
	}
	for i := 0; i < m.reads.n; i++ {
		sl := m.reads.slots[i]
		s := st.From
		if sl&1 != 0 {
			s = st.To
		}
		k[i] = s.CodeAt(int(sl >> 1))
	}
	return k, true
}

func (m *memo) load(k *memoKey) *memoResult {
	if t := m.tab.Load(); t != nil {
		if i, ok := t.index(k); ok {
			return t.cells[i].Load()
		}
	}
	return nil
}

// cell returns the cell of k, growing the table if k lies outside it, or
// nil if even the tightest table holding k would exceed maxMemoCells; such
// a key is never memoized, and finding so takes no lock.
func (m *memo) cell(k *memoKey) *atomic.Pointer[memoResult] {
	t := m.tab.Load()
	if t != nil {
		if i, ok := t.index(k); ok {
			return &t.cells[i]
		}
	}
	if _, ok := grownDims(t, k, false); !ok {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t = m.tab.Load()
	if t != nil {
		if i, ok := t.index(k); ok {
			return &t.cells[i]
		}
	}
	dim, ok := grownDims(t, k, true)
	if !ok {
		// The table may have grown since the check above.
		if dim, ok = grownDims(t, k, false); !ok {
			return nil
		}
	}
	nt := &memoTable{dim: dim, cells: make([]atomic.Pointer[memoResult], dim[0]*dim[1]*dim[2])}
	if t != nil {
		var ck memoKey
		for ck[2] = 0; ck[2] < t.dim[2]; ck[2]++ {
			for ck[1] = 0; ck[1] < t.dim[1]; ck[1]++ {
				for ck[0] = 0; ck[0] < t.dim[0]; ck[0]++ {
					oi, _ := t.index(&ck)
					if c := t.cells[oi].Load(); c != nil {
						ni, _ := nt.index(&ck)
						nt.cells[ni].Store(c)
					}
				}
			}
		}
	}
	m.tab.Store(nt)
	i, _ := nt.index(k)
	return &nt.cells[i]
}

// grownDims returns the dimensions of a table covering t and k. With
// slack, a dimension that must grow grows by at least half, so a run of
// new codes regrows the table a logarithmic number of times; without, it
// grows just enough. It reports false when the result exceeds
// maxMemoCells.
func grownDims(t *memoTable, k *memoKey, slack bool) ([maxMemoSlots]uint32, bool) {
	dim := [maxMemoSlots]uint32{1, 1, 1}
	if t != nil {
		dim = t.dim
	}
	cells := uint64(1)
	for i := range dim {
		if k[i] >= dim[i] {
			d := k[i] + 1
			if slack && t != nil {
				d = max(d, dim[i]+dim[i]/2)
			}
			dim[i] = d
		}
		cells *= uint64(dim[i])
	}
	return dim, cells <= maxMemoCells
}

// memoPred wraps a compiled predicate reading the slots rs in a memo.
func memoPred(rs *slotSet, f boolFn) boolFn {
	m := &memo{reads: *rs}
	return func(st state.Step) (bool, error) {
		k, ok := m.key(st)
		if !ok {
			return f(st)
		}
		if r := m.load(&k); r != nil {
			return r.b, r.err
		}
		b, err := f(st)
		if c := m.cell(&k); c != nil {
			switch {
			case err != nil:
				c.Store(&memoResult{err: err})
			case b:
				c.Store(memoTrue)
			default:
				c.Store(memoFalse)
			}
		}
		return b, err
	}
}

// memoVal wraps a compiled value reading the slots rs in a memo.
func memoVal(rs *slotSet, f valFn) valFn {
	m := &memo{reads: *rs}
	return func(st state.Step) (value.Value, error) {
		k, ok := m.key(st)
		if !ok {
			return f(st)
		}
		if r := m.load(&k); r != nil {
			return r.v, r.err
		}
		v, err := f(st)
		if c := m.cell(&k); c != nil {
			c.Store(&memoResult{v: v, err: err})
		}
		return v, err
	}
}
