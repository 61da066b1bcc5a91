package state

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"opentla/internal/value"
)

// A dict interns the values of one variable: each distinct value gets a
// dense uint32 code, the index of its entry. Dictionaries live for the
// whole process, one per variable name (see layoutOf), so a code means the
// same value in every state and every layout that binds the variable.
//
// Entries sit in segments that double in size — segment k holds codes
// [segBase·(2^k−1), segBase·(2^(k+1)−1)) — so a dictionary never moves an
// entry and a reader never locks: an entry is written, its segment
// published, and only then is its code handed out, all under mu; whoever
// holds a code got it after that. Code 0 is reserved: it is never handed
// out, so a zero PosUpdate code means "not yet resolved".
type dict struct {
	name string
	segs [numSegs]atomic.Pointer[[]dictEntry]

	mu   sync.RWMutex
	byFP map[uint64][]uint32 // codes by value fingerprint; guarded by mu
	next uint32              // the next code to hand out; guarded by mu
}

type dictEntry struct {
	val value.Value
	fp  uint64 // val.Fingerprint(), cached for State.Fingerprint
}

const (
	segBits = 3
	segBase = 1 << segBits
	numSegs = 33 - segBits // enough segments for every uint32 code
)

// locate returns the segment of code c and its offset within it.
func locate(c uint32) (seg int, off uint64) {
	x := uint64(c) + segBase
	seg = bits.Len64(x) - 1 - segBits
	return seg, x - segBase<<seg
}

func (d *dict) entry(c uint32) *dictEntry {
	seg, off := locate(c)
	return &(*d.segs[seg].Load())[off]
}

// intern returns v's code, assigning the next one if v is new. Lookups take
// the read lock; only a new value takes the write lock.
func (d *dict) intern(v value.Value) uint32 {
	if !v.IsValid() {
		panic(fmt.Sprintf("state: variable %q bound to the invalid zero value.Value", d.name))
	}
	fp := v.Fingerprint()
	d.mu.RLock()
	c, ok := d.lookup(v, fp)
	d.mu.RUnlock()
	if ok {
		return c
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.lookup(v, fp); ok {
		return c
	}
	c = d.next
	if c == ^uint32(0) {
		panic(fmt.Sprintf("state: variable %q has more than 2^32-1 distinct values", d.name))
	}
	seg, off := locate(c)
	p := d.segs[seg].Load()
	if p == nil {
		s := make([]dictEntry, segBase<<seg)
		p = &s
		d.segs[seg].Store(p)
	}
	(*p)[off] = dictEntry{val: v, fp: fp}
	d.byFP[fp] = append(d.byFP[fp], c)
	d.next++
	return c
}

func (d *dict) lookup(v value.Value, fp uint64) (uint32, bool) {
	for _, c := range d.byFP[fp] {
		if d.entry(c).val.Equal(v) {
			return c, true
		}
	}
	return 0, false
}

// A layout is the sorted variable names a state binds, with each name's
// dictionary. Layouts are interned too (see layoutOf), so states over the
// same names share one layout and compare layouts by pointer.
type layout struct {
	names []string
	dicts []*dict
	seed  uint64 // namesHash(names), the starting value of RowHash
}

// pos returns the index of name in the layout. The binary search is
// hand-rolled: Get is the innermost call of formula evaluation and
// sort.Search's closure defeats inlining.
func (l *layout) pos(name string) (int, bool) {
	lo, hi := 0, len(l.names)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(l.names) && l.names[lo] == name
}

// registry holds every dictionary and layout of the process.
var registry = struct {
	mu      sync.RWMutex
	dicts   map[string]*dict
	layouts map[uint64][]*layout // by namesHash
}{dicts: map[string]*dict{}, layouts: map[uint64][]*layout{}}

// layoutOf returns the interned layout of names, which must be sorted and
// distinct. It does not retain names.
func layoutOf(names []string) *layout {
	h := namesHash(names)
	registry.mu.RLock()
	l := findLayout(h, names)
	registry.mu.RUnlock()
	if l != nil {
		return l
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if l := findLayout(h, names); l != nil {
		return l
	}
	l = &layout{names: append([]string(nil), names...), dicts: make([]*dict, len(names)), seed: h}
	for i, n := range names {
		d := registry.dicts[n]
		if d == nil {
			d = &dict{name: n, byFP: map[uint64][]uint32{}, next: 1}
			seg0 := make([]dictEntry, segBase)
			d.segs[0].Store(&seg0)
			registry.dicts[n] = d
		}
		l.dicts[i] = d
	}
	registry.layouts[h] = append(registry.layouts[h], l)
	return l
}

func findLayout(h uint64, names []string) *layout {
outer:
	for _, l := range registry.layouts[h] {
		if len(l.names) != len(names) {
			continue
		}
		for i := range names {
			if l.names[i] != names[i] {
				continue outer
			}
		}
		return l
	}
	return nil
}

func namesHash(names []string) uint64 {
	h := uint64(fnvOffset64)
	for _, n := range names {
		for i := 0; i < len(n); i++ {
			h = (h ^ uint64(n[i])) * fnvPrime64
		}
		h *= fnvPrime64 // a 0 byte ends each name
	}
	return h
}
