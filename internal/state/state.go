// Package state defines states (assignments of values to variables), steps
// (pairs of states), finite behaviors, and lasso representations of infinite
// behaviors, following the semantics of TLA in Abadi & Lamport,
// "Open Systems in TLA" (§2.1).
package state

import (
	"fmt"
	"sort"
	"strings"

	"opentla/internal/value"
)

// State is an immutable assignment of values to a finite set of variables.
// In the paper a state assigns values to all variables of the universe; here
// a State mentions only the variables relevant to the systems under check,
// which is sound because every formula we evaluate mentions only those.
//
// A State is a row of value codes over a shared layout: the layout holds
// the sorted variable names, interned once per name set, and row[i] is the
// code of the value of variable i in that variable's dictionary, which
// interns each distinct value once (see dict.go). The row is pointer-free,
// so the garbage collector never scans it, and no state repeats a name or a
// value.
//
// Concurrency contract: a State is immutable after construction and safe to
// share across goroutines without synchronization. The layouts and
// dictionaries behind it are process-wide and safe for concurrent use:
// states may be built, read, hashed and compared from any number of
// goroutines at once, and equal values get equal codes whichever goroutine
// interns them first.
type State struct {
	lay *layout
	row []uint32 // row[i]: code of variable lay.names[i]'s value in lay.dicts[i]
}

// New constructs a state from a variable→value map. It panics if a value is
// the invalid zero value.Value.
func New(vars map[string]value.Value) *State {
	names := make([]string, 0, len(vars))
	for n := range vars {
		names = append(names, n)
	}
	sort.Strings(names)
	lay := layoutOf(names)
	row := make([]uint32, len(names))
	for i, n := range names {
		row[i] = lay.dicts[i].intern(vars[n])
	}
	return &State{lay: lay, row: row}
}

// FromPairs constructs a state from alternating name/value pairs, e.g.
// FromPairs("x", value.Int(0), "y", value.True). It panics on a malformed
// argument list; it is intended for tests and example construction.
func FromPairs(pairs ...any) *State {
	if len(pairs)%2 != 0 {
		panic("state.FromPairs: odd number of arguments")
	}
	m := make(map[string]value.Value, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		name, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("state.FromPairs: argument %d is not a string", i))
		}
		v, ok := pairs[i+1].(value.Value)
		if !ok {
			panic(fmt.Sprintf("state.FromPairs: argument %d is not a value.Value", i+1))
		}
		m[name] = v
	}
	return New(m)
}

// Get returns the value of variable name. The second result is false if the
// state does not bind name.
func (s *State) Get(name string) (value.Value, bool) {
	if i, ok := s.lay.pos(name); ok {
		return s.At(i), true
	}
	return value.Value{}, false
}

// At returns the value at binding position i in the state's sorted name
// order — the positional dual of Get, used by compiled expression
// evaluation (form.CompilePred) after positions are resolved once against
// a fixed variable layout. The caller must ensure 0 <= i < Len().
func (s *State) At(i int) value.Value { return s.lay.dicts[i].entry(s.row[i]).val }

// CodeAt returns the code of the value at binding position i in the
// dictionary of that position's variable. Dictionaries are per variable
// name and live for the process, so over one layout equal codes at i mean
// equal values at i, in any state and at any time; compiled evaluation
// (form.CompilePred) keys its memo tables by them. The caller must ensure
// 0 <= i < Len().
func (s *State) CodeAt(i int) uint32 { return s.row[i] }

// EqualAt reports whether s and t have equal values at binding position i,
// comparing codes when both bind the same variable there.
func (s *State) EqualAt(t *State, i int) bool {
	if s.lay.dicts[i] == t.lay.dicts[i] {
		return s.row[i] == t.row[i]
	}
	return s.At(i).Equal(t.At(i))
}

// MustGet returns the value of variable name and panics if unbound. Use in
// contexts where the variable set has been validated.
func (s *State) MustGet(name string) value.Value {
	v, ok := s.Get(name)
	if !ok {
		panic(fmt.Sprintf("state: variable %q unbound", name))
	}
	return v
}

// With returns a new state equal to s except that name is bound to v.
func (s *State) With(name string, v value.Value) *State {
	return s.WithAll(map[string]value.Value{name: v})
}

// WithAll returns a new state equal to s with every binding in updates
// applied. Existing bindings are replaced; new names are inserted in order.
// Codes of the bindings s keeps are copied, not re-interned.
func (s *State) WithAll(updates map[string]value.Value) *State {
	if len(updates) == 0 {
		return s
	}
	var added []string
	for n := range updates {
		if _, ok := s.lay.pos(n); !ok {
			added = append(added, n)
		}
	}
	lay := s.lay
	if len(added) > 0 {
		names := append(append([]string(nil), s.lay.names...), added...)
		sort.Strings(names)
		lay = layoutOf(names)
	}
	row := make([]uint32, len(lay.names))
	for i, n := range lay.names {
		if v, ok := updates[n]; ok {
			row[i] = lay.dicts[i].intern(v)
		} else {
			j, _ := s.lay.pos(n)
			row[i] = s.row[j]
		}
	}
	return &State{lay: lay, row: row}
}

// PosUpdate assigns Val to the binding at index Pos in a state's sorted
// binding order (see PosOf). Positional updates let the successor generator
// build candidate states with a single row copy instead of repeated
// map-merge-sort passes.
//
// Applying an update interns Val unless Resolve has already recorded its
// code; an update reused across many candidates should be resolved once.
// Resolve records the code of the Val it saw, so reassigning Val afterwards
// requires resolving again (assigning a whole resolved PosUpdate is fine).
type PosUpdate struct {
	Pos  int
	Val  value.Value
	code uint32 // Val's code in the dictionary at Pos; 0 = not resolved
}

// Resolve interns the value of every update against s's layout and records
// its code, so applying the updates (CloneWith, OverwriteInto) on any state
// with s's variable set copies codes instead of interning. It panics if a
// value is the invalid zero value.Value.
func (s *State) Resolve(ups []PosUpdate) {
	for i := range ups {
		ups[i].code = s.lay.dicts[ups[i].Pos].intern(ups[i].Val)
	}
}

// PosOf returns the index of name within the state's sorted bindings, for
// use with CloneWith.
func (s *State) PosOf(name string) (int, bool) {
	if i, ok := s.lay.pos(name); ok {
		return i, true
	}
	return -1, false
}

// apply writes the update groups into row, a row over l.
func (l *layout) apply(row []uint32, groups ...[]PosUpdate) {
	for _, g := range groups {
		for i := range g {
			if u := &g[i]; u.code != 0 {
				row[u.Pos] = u.code
			} else {
				row[u.Pos] = l.dicts[u.Pos].intern(u.Val)
			}
		}
	}
}

// CloneWith returns a copy of s with every update group applied in order.
// Groups may be nil or empty; positions must come from PosOf on a state
// with the same variable set. Unlike WithAll it cannot introduce new
// variables — it only reassigns existing ones.
func (s *State) CloneWith(groups ...[]PosUpdate) *State {
	row := append([]uint32(nil), s.row...)
	s.lay.apply(row, groups...)
	return &State{lay: s.lay, row: row}
}

// WithCodes returns a copy of s with the code at binding position pos[j]
// replaced by codes[j]. Each code must be one that CodeAt returned at a
// position binding the same variable, in any state of any layout:
// dictionaries are per variable name, so such a code means the same value
// here. It is the positional dual of WithAll for callers that already hold
// the codes, and interns nothing.
func (s *State) WithCodes(pos []int, codes []uint32) *State {
	row := append([]uint32(nil), s.row...)
	for j, p := range pos {
		row[p] = codes[j]
	}
	return &State{lay: s.lay, row: row}
}

// OverwriteInto copies s into dst (reusing dst's row capacity) and applies
// the update groups. dst may be a zero State: OverwriteInto sets its
// layout. It exists so successor enumeration can build every candidate of
// a state in one scratch State instead of allocating one per candidate.
// dst must be goroutine-local and must not escape while it is reused: a
// consumer that keeps a candidate keeps a Clone of it (store.InternCopy
// clones only the states it adds).
func (s *State) OverwriteInto(dst *State, groups ...[]PosUpdate) {
	dst.lay = s.lay
	dst.row = append(dst.row[:0], s.row...)
	s.lay.apply(dst.row, groups...)
}

// Clone returns an immutable snapshot of s. It materializes a scratch state
// (see OverwriteInto) into one that may be shared and retained.
func (s *State) Clone() *State {
	return &State{lay: s.lay, row: append([]uint32(nil), s.row...)}
}

// Drop returns the state without the named variables.
func (s *State) Drop(names []string) *State {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	var kept []string
	var row []uint32
	for i, n := range s.lay.names {
		if !drop[n] {
			kept = append(kept, n)
			row = append(row, s.row[i])
		}
	}
	return &State{lay: layoutOf(kept), row: row}
}

// Vars returns the sorted variable names bound by s.
func (s *State) Vars() []string { return append([]string(nil), s.lay.names...) }

// Layout identifies the variable set a state binds. Layouts are interned,
// so two states bind the same variables exactly when their Layouts are
// equal, and the comparison costs one pointer compare.
type Layout struct{ l *layout }

// LayoutOf returns the Layout of states binding exactly names. names must
// be sorted and distinct, as Vars returns them; for any other list it
// returns the zero Layout, which no state has.
func LayoutOf(names []string) Layout {
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			return Layout{}
		}
	}
	return Layout{layoutOf(names)}
}

// Layout returns the Layout of the variables s binds.
func (s *State) Layout() Layout { return Layout{s.lay} }

// Vars returns the sorted variable names of the layout.
func (l Layout) Vars() []string {
	if l.l == nil {
		return nil
	}
	return append([]string(nil), l.l.names...)
}

// Len returns the number of bound variables.
func (s *State) Len() int { return len(s.row) }

// Equal reports whether s and t bind the same variables to equal values.
// Layouts are interned per name set and dictionaries intern values by
// value.Equal, so comparing layout pointers and code rows is exact.
func (s *State) Equal(t *State) bool {
	if s == t {
		return true
	}
	if s == nil || t == nil || s.lay != t.lay {
		return false
	}
	for i := range s.row {
		if s.row[i] != t.row[i] {
			return false
		}
	}
	return true
}

// EqualOn reports whether s and t agree on every variable in names.
// Variables unbound in both states are considered in agreement.
func (s *State) EqualOn(t *State, names []string) bool {
	for _, n := range names {
		i, sok := s.lay.pos(n)
		j, tok := t.lay.pos(n)
		if sok != tok || sok && s.row[i] != t.row[j] {
			return false
		}
	}
	return true
}

// RowHash returns a process-local 64-bit hash of the state for in-memory
// dedup: its layout's seed mixed with each code of its row. Equal states
// have equal layouts and rows, so they hash equal; states over different
// layouts start from different seeds, so equal rows over two layouts hash
// apart. Codes are process-local, so the hash is never persisted or used
// to order anything: Fingerprint is the stable hash.
func (s *State) RowHash() uint64 {
	h := s.lay.seed
	for _, c := range s.row {
		h = (h ^ uint64(c)) * rowPrime
	}
	// Finalize (the murmur3 fmix64 mixer) so every code reaches the top
	// bits, which pick the store shard.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// rowPrime is an odd 64-bit multiplier (2^64 divided by the golden ratio),
// so each mixing step is a bijection of the running hash.
const rowPrime = 0x9e3779b97f4a7c15

// Fingerprint returns the stable 64-bit hash of the state: the same for the
// same variables and values in every process and in every representation
// the state has had. The explorer orders the states of each BFS level by
// it, so state numbering and snapshot bytes follow from it. It is not
// cached: the explorer asks once per state new to a graph, and in-memory
// dedup uses RowHash instead.
func (s *State) Fingerprint() uint64 {
	if fp := s.computeFingerprint(); fp != 0 {
		return fp
	}
	return 1 // never 0: a zero hash has always been numbered as 1
}

// FNV-1a 64-bit constants; the hash is unrolled by hand because hash/fnv's
// interface-based Writer both allocates and defeats inlining.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// computeFingerprint hashes, for each binding in name order, the name
// bytes, '=', the 8 little-endian bytes of the value's fingerprint and ';'.
// The stream is the one the binding-slice representation hashed, so state
// numbering and snapshot bytes do not depend on the representation; the
// value fingerprints come cached from the dictionaries.
func (s *State) computeFingerprint() uint64 {
	h := uint64(fnvOffset64)
	for i, name := range s.lay.names {
		for j := 0; j < len(name); j++ {
			h = (h ^ uint64(name[j])) * fnvPrime64
		}
		h = (h ^ '=') * fnvPrime64
		f := s.lay.dicts[i].entry(s.row[i]).fp
		for j := 0; j < 8; j++ {
			h = (h ^ uint64(byte(f>>(8*j)))) * fnvPrime64
		}
		h = (h ^ ';') * fnvPrime64
	}
	return h
}

// Key returns a canonical string key for the state, usable as a map key
// with no collision risk (unlike Fingerprint).
func (s *State) Key() string {
	var sb strings.Builder
	for i, n := range s.lay.names {
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(s.At(i).String())
		sb.WriteByte(';')
	}
	return sb.String()
}

// String renders the state as [x=1 y=TRUE ...].
func (s *State) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, n := range s.lay.names {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(n)
		sb.WriteByte('=')
		sb.WriteString(s.At(i).String())
	}
	sb.WriteByte(']')
	return sb.String()
}

// Step is a pair of states ⟨From, To⟩. An action is true or false of a
// step, with primed variables referring to To (§2.1).
type Step struct {
	From *State
	To   *State
}

// Stutters reports whether the step leaves every variable in names
// unchanged (a ⟨names⟩-stuttering step).
func (p Step) Stutters(names []string) bool { return p.From.EqualOn(p.To, names) }

// String renders the step.
func (p Step) String() string { return p.From.String() + " -> " + p.To.String() }
