package value

// An Index answers membership in a fixed list of values, such as a
// variable's declared domain, and gives a member's position in the list.
// A list of fewer than linearIndexMax values is scanned with Equal; a
// longer one is indexed by fingerprint when the Index is built, so a
// lookup in a domain of thousands of sequences costs one hash and a bucket
// compare instead of a scan. An Index is safe for concurrent lookups.
type Index struct {
	vals []Value
	byFP map[uint64][]int32 // positions in vals by fingerprint; nil: scan
}

// linearIndexMax is the break-even list length between a scan and the
// fingerprint index, measured by BenchmarkIndex: on a 2-vCPU x86-64 box
// the index wins from 5 integers and from about 10 sequences, the scan
// below that.
const linearIndexMax = 8

// NewIndex returns the index of vals, which it keeps and which must not
// change afterwards.
func NewIndex(vals []Value) *Index {
	x := &Index{vals: vals}
	if len(vals) >= linearIndexMax {
		x.hash()
	}
	return x
}

// hash builds x's fingerprint index.
func (x *Index) hash() {
	x.byFP = make(map[uint64][]int32, len(x.vals))
	for i, v := range x.vals {
		fp := v.Fingerprint()
		x.byFP[fp] = append(x.byFP[fp], int32(i))
	}
}

// IndexOf returns the position of the first value of the list equal to v,
// or -1 if there is none.
func (x *Index) IndexOf(v Value) int {
	if x.byFP == nil {
		for i, w := range x.vals {
			if w.Equal(v) {
				return i
			}
		}
		return -1
	}
	for _, i := range x.byFP[v.Fingerprint()] {
		if x.vals[i].Equal(v) {
			return int(i)
		}
	}
	return -1
}

// Has reports whether v is in the list.
func (x *Index) Has(v Value) bool { return x.IndexOf(v) >= 0 }
