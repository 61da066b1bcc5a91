package state

import (
	"fmt"
	"sort"

	"opentla/internal/value"
)

// An Extension widens the states of one layout L by a fixed list of extra
// variables, to states over L ∪ extra. Positions are resolved when the
// extension is made, so widening a state is one row scatter plus one code
// write per extra variable, and projecting a wide state back onto L is one
// row gather: no name is looked up, no layout interned and no map built per
// state. Monitor products widen base states by their monitor variables,
// and refinement checks widen concrete states by the mapped variables.
//
// An extra name L already binds is overwritten in the wide state. The
// projection would then lose the original value, so Project refuses such an
// extension.
//
// An Extension is immutable and safe for concurrent use.
type Extension struct {
	src, dst *layout
	scatter  []int         // scatter[i]: dst position of src binding i
	extra    []int         // extra[j]: dst position of extra variable j
	known    [][]PosUpdate // known[j]: the values declared for extra j, resolved
	overlap  bool          // some extra name is bound by src
}

// NewExtension returns the extension of the layout l by the variables
// extra, in that order (they need not be sorted). vals, when non-nil,
// declares for each extra variable the values it usually takes (a monitor's
// domain, say): their codes are resolved here, once, so Update hands them
// out without interning. The zero Layout and repeated extra names are
// errors.
func NewExtension(l Layout, extra []string, vals [][]value.Value) (*Extension, error) {
	if l.l == nil {
		return nil, fmt.Errorf("state: extension of the zero layout")
	}
	if vals != nil && len(vals) != len(extra) {
		return nil, fmt.Errorf("state: extension by %d variables with %d value lists", len(extra), len(vals))
	}
	src := l.l
	names := append([]string(nil), src.names...)
	x := &Extension{src: src}
	seen := make(map[string]bool, len(extra))
	for _, n := range extra {
		if seen[n] {
			return nil, fmt.Errorf("state: extra variable %q listed twice", n)
		}
		seen[n] = true
		if _, ok := src.pos(n); ok {
			x.overlap = true
		} else {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	x.dst = layoutOf(names)
	x.scatter = make([]int, len(src.names))
	for i, n := range src.names {
		x.scatter[i], _ = x.dst.pos(n)
	}
	x.extra = make([]int, len(extra))
	x.known = make([][]PosUpdate, len(extra))
	for j, n := range extra {
		x.extra[j], _ = x.dst.pos(n)
		if vals == nil {
			continue
		}
		for _, v := range vals[j] {
			x.known[j] = append(x.known[j], PosUpdate{Pos: x.extra[j], Val: v, code: x.dst.dicts[x.extra[j]].intern(v)})
		}
	}
	return x, nil
}

// Layout returns the layout of the wide states, L ∪ extra.
func (x *Extension) Layout() Layout { return Layout{x.dst} }

// Pos returns the position of extra variable j in the wide layout, so a
// wide state's value of it is At(Pos(j)).
func (x *Extension) Pos(j int) int { return x.extra[j] }

// Update returns the update binding extra variable j to v, for Extend. Its
// code is the one resolved by NewExtension when v is among the values
// declared for j; otherwise v is interned when the update is applied.
func (x *Extension) Update(j int, v value.Value) PosUpdate {
	for _, u := range x.known[j] {
		if u.Val.Equal(v) {
			return u
		}
	}
	return PosUpdate{Pos: x.extra[j], Val: v}
}

// Resolve returns the update binding extra variable j to v with v's code
// resolved now, so every Extend it is handed to copies the code instead of
// interning v. A caller that remembers values across many states (an image
// memo, say) resolves each once and keeps the update.
func (x *Extension) Resolve(j int, v value.Value) PosUpdate {
	p := x.extra[j]
	return PosUpdate{Pos: p, Val: v, code: x.dst.dicts[p].intern(v)}
}

// Extend returns s widened by the extra variables, extra variable j bound
// by ups[j], an update made by Update(j, ...). s must be a state over the
// extension's source layout.
func (x *Extension) Extend(s *State, ups []PosUpdate) (*State, error) {
	t := new(State)
	if err := x.ExtendInto(s, ups, t); err != nil {
		return nil, err
	}
	return t, nil
}

// ExtendInto is Extend into dst: it overwrites dst with the widened state,
// reusing dst's row capacity, so one scratch state can take every widening
// of an enumeration. Like OverwriteInto's dst, dst must be private to the
// caller while it is reused; Clone it to keep it.
func (x *Extension) ExtendInto(s *State, ups []PosUpdate, dst *State) error {
	if s.lay != x.src {
		return fmt.Errorf("state: extending %s, whose layout is not the extension's source %v", s, x.src.names)
	}
	if len(ups) != len(x.extra) {
		return fmt.Errorf("state: extension by %d variables given %d updates", len(x.extra), len(ups))
	}
	for j := range ups {
		if ups[j].Pos != x.extra[j] {
			return fmt.Errorf("state: update %d of an extension binds position %d, not extra variable %d's", j, ups[j].Pos, j)
		}
	}
	n := len(x.dst.names)
	if cap(dst.row) < n {
		dst.row = make([]uint32, n)
	}
	row := dst.row[:n]
	for i, c := range s.row {
		row[x.scatter[i]] = c
	}
	x.dst.apply(row, ups)
	dst.lay, dst.row = x.dst, row
	return nil
}

// Project overwrites dst with the source-layout part of wide, a state over
// the extension's wide layout. Like OverwriteInto it reuses dst's row
// capacity, so dst must be private to the caller while it is reused.
func (x *Extension) Project(wide, dst *State) error {
	if x.overlap {
		return fmt.Errorf("state: projection through an extension that overwrites source variables")
	}
	if wide.lay != x.dst {
		return fmt.Errorf("state: projecting %s, whose layout is not the extension's wide layout %v", wide, x.dst.names)
	}
	dst.lay = x.src
	dst.row = dst.row[:0]
	for _, p := range x.scatter {
		dst.row = append(dst.row, wide.row[p])
	}
	return nil
}
