// Package value implements the value universe of the TLA fragment used in
// this repository: booleans, integers, strings, and finite tuples/sequences.
//
// Values are immutable. Tuples double as finite sequences, matching the
// paper's usage where angle brackets form sequences and Head/Tail/∘ operate
// on them (Abadi & Lamport, "Open Systems in TLA", Appendix A.1).
package value

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind int

// The kinds of values in the universe.
const (
	KindBool Kind = iota + 1
	KindInt
	KindString
	KindTuple
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindTuple:
		return "tuple"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is an immutable TLA value. Construct values with Bool, Int, Str,
// and Tuple. The zero Value is invalid: it is no TLA value, only the
// "nothing" result of a failed accessor (At, Head, ...), and no state may
// bind it — package state's constructors panic on it.
type Value struct {
	kind Kind
	b    bool
	i    int64
	s    string
	t    []Value // not aliased externally; treated as immutable
}

// Bool returns the boolean value v.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Int returns the integer value v.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Str returns the string value v.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Tuple returns the tuple (equivalently, finite sequence) of the given
// elements. The argument slice is copied; Tuple() is the empty sequence ⟨⟩.
func Tuple(elems ...Value) Value {
	t := make([]Value, len(elems))
	copy(t, elems)
	return Value{kind: KindTuple, t: t}
}

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// Empty is the empty sequence ⟨⟩.
var Empty = Tuple()

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether v was constructed by one of the constructors
// (as opposed to being a zero Value).
func (v Value) IsValid() bool { return v.kind != 0 }

// AsBool returns the boolean payload. The second result is false if v is
// not a boolean.
func (v Value) AsBool() (bool, bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.b, true
}

// AsInt returns the integer payload. The second result is false if v is
// not an integer.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.i, true
}

// AsString returns the string payload. The second result is false if v is
// not a string.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.s, true
}

// Len returns the length of a tuple value, or -1 if v is not a tuple.
func (v Value) Len() int {
	if v.kind != KindTuple {
		return -1
	}
	return len(v.t)
}

// At returns the i-th element (0-based) of a tuple value. The second result
// is false if v is not a tuple or i is out of range.
func (v Value) At(i int) (Value, bool) {
	if v.kind != KindTuple || i < 0 || i >= len(v.t) {
		return Value{}, false
	}
	return v.t[i], true
}

// Head returns the first element of a nonempty sequence. The second result
// is false if v is not a nonempty sequence.
func (v Value) Head() (Value, bool) {
	if v.kind != KindTuple || len(v.t) == 0 {
		return Value{}, false
	}
	return v.t[0], true
}

// Tail returns the sequence without its first element. The second result is
// false if v is not a nonempty sequence.
func (v Value) Tail() (Value, bool) {
	if v.kind != KindTuple || len(v.t) == 0 {
		return Value{}, false
	}
	rest := make([]Value, len(v.t)-1)
	copy(rest, v.t[1:])
	return Value{kind: KindTuple, t: rest}, true
}

// Concat returns the concatenation v ∘ w of two sequences. The second
// result is false unless both v and w are tuples.
func (v Value) Concat(w Value) (Value, bool) {
	if v.kind != KindTuple || w.kind != KindTuple {
		return Value{}, false
	}
	t := make([]Value, 0, len(v.t)+len(w.t))
	t = append(t, v.t...)
	t = append(t, w.t...)
	return Value{kind: KindTuple, t: t}, true
}

// Append returns the sequence v ∘ ⟨e⟩. The second result is false unless v
// is a tuple.
func (v Value) Append(e Value) (Value, bool) {
	if v.kind != KindTuple {
		return Value{}, false
	}
	t := make([]Value, 0, len(v.t)+1)
	t = append(t, v.t...)
	t = append(t, e)
	return Value{kind: KindTuple, t: t}, true
}

// Elems returns a copy of the elements of a tuple value (nil if v is not a
// tuple).
func (v Value) Elems() []Value {
	if v.kind != KindTuple {
		return nil
	}
	out := make([]Value, len(v.t))
	copy(out, v.t)
	return out
}

// Equal reports whether v and w are the same value. Values of different
// kinds are never equal.
func (v Value) Equal(w Value) bool {
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case KindBool:
		return v.b == w.b
	case KindInt:
		return v.i == w.i
	case KindString:
		return v.s == w.s
	case KindTuple:
		if len(v.t) != len(w.t) {
			return false
		}
		for i := range v.t {
			if !v.t[i].Equal(w.t[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare defines a total order on values: first by kind, then by payload
// (tuples lexicographically). It returns -1, 0, or 1.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindBool:
		switch {
		case v.b == w.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(v.s, w.s)
	case KindTuple:
		n := len(v.t)
		if len(w.t) < n {
			n = len(w.t)
		}
		for i := 0; i < n; i++ {
			if c := v.t[i].Compare(w.t[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(v.t) < len(w.t):
			return -1
		case len(v.t) > len(w.t):
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// String renders the value in TLA-like notation: booleans as TRUE/FALSE,
// sequences in angle brackets.
func (v Value) String() string {
	var sb strings.Builder
	v.write(&sb)
	return sb.String()
}

func (v Value) write(sb *strings.Builder) {
	switch v.kind {
	case KindBool:
		if v.b {
			sb.WriteString("TRUE")
		} else {
			sb.WriteString("FALSE")
		}
	case KindInt:
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case KindString:
		sb.WriteString(strconv.Quote(v.s))
	case KindTuple:
		sb.WriteString("<<")
		for i := range v.t {
			if i > 0 {
				sb.WriteString(", ")
			}
			v.t[i].write(sb)
		}
		sb.WriteString(">>")
	case 0:
		sb.WriteString("<invalid>")
	default:
		fmt.Fprintf(sb, "<unknown kind %d>", int(v.kind))
	}
}

// FNV-1a 64-bit constants. The hash is unrolled by hand: fingerprints are
// computed once per candidate successor state during exploration, and
// hash/fnv's allocation plus interface-dispatched writes dominated that
// path. The byte stream (and hence every fingerprint) is identical to the
// previous hash/fnv implementation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint returns a 64-bit hash of the value, stable across runs.
// Distinct values may collide only with FNV-64 probability; equality
// checks in hot paths should pair Fingerprint with Equal.
func (v Value) Fingerprint() uint64 {
	return v.fingerprintInto(fnvOffset64)
}

// fingerprintInto folds v's canonical byte encoding into the running
// FNV-1a hash h.
func (v Value) fingerprintInto(h uint64) uint64 {
	h = (h ^ uint64(byte(v.kind))) * fnvPrime64
	switch v.kind {
	case KindBool:
		if v.b {
			h = (h ^ 1) * fnvPrime64
		} else {
			h = h * fnvPrime64
		}
	case KindInt:
		u := uint64(v.i)
		for i := 0; i < 8; i++ {
			h = (h ^ uint64(byte(u>>(8*i)))) * fnvPrime64
		}
	case KindString:
		for i := 0; i < len(v.s); i++ {
			h = (h ^ uint64(v.s[i])) * fnvPrime64
		}
		h = h * fnvPrime64 // the terminating 0 byte
	case KindTuple:
		n := uint32(len(v.t))
		for i := 0; i < 4; i++ {
			h = (h ^ uint64(byte(n>>(8*i)))) * fnvPrime64
		}
		for i := range v.t {
			h = v.t[i].fingerprintInto(h)
		}
	}
	return h
}

// Ints returns the domain {lo, lo+1, …, hi} as a slice of integer values.
// It returns nil if hi < lo.
func Ints(lo, hi int64) []Value {
	if hi < lo {
		return nil
	}
	out := make([]Value, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, Int(i))
	}
	return out
}

// Bools returns the two-element boolean domain {FALSE, TRUE}.
func Bools() []Value { return []Value{False, True} }

// Bits returns the domain {0, 1} as integers, the representation the paper
// uses for the handshake signal and acknowledgement wires.
func Bits() []Value { return []Value{Int(0), Int(1)} }

// Seqs returns every sequence over the element domain elems with length at
// most maxLen, ordered by length and then lexicographically. This is the
// finite domain of a bounded queue's contents.
func Seqs(elems []Value, maxLen int) []Value {
	var out []Value
	cur := []Value{Empty}
	out = append(out, Empty)
	for l := 1; l <= maxLen; l++ {
		next := make([]Value, 0, len(cur)*len(elems))
		for _, prefix := range cur {
			for _, e := range elems {
				s, _ := prefix.Append(e)
				next = append(next, s)
			}
		}
		out = append(out, next...)
		cur = next
	}
	return out
}

// SortValues sorts a slice of values in place by Compare.
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
}
