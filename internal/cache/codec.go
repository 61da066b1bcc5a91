package cache

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// Snapshot file layout (all integers are unsigned varints unless noted):
//
//	magic    [8]byte  "OTLASNAP"
//	version  uint16 little-endian (codecVersion)
//	descSum  [32]byte SHA-256 of the canonical system description
//	flags    byte     bit 0: complete graph (vs checkpoint);
//	                  bit 1: the edges section follows the targets
//	level    varint   next BFS level (checkpoints)
//	nvars    varint   variable-name table, sorted and distinct (every state
//	                  in one graph binds the same variable set); names are
//	                  len-prefixed
//	dicts    varint   per variable in table order, a value count, then
//	                  each distinct value of the variable once (see
//	                  appendValue)
//	nstates  varint   per state, one dictionary index per table entry
//	ninits   varint   initial-state ids
//	nrows    varint   committed CSR row lengths, then all targets
//	edges    (flag bit 1) per target, one edge-state record: a 0 byte when
//	                  the edge's real successor IS the target state, or a 1
//	                  byte followed by the real successor's dictionary
//	                  indices; present only for symmetry-reduced graphs
//	checksum [32]byte SHA-256 of everything above
//
// A state is a row of small indices, so decoding interns each distinct
// value once and builds every state by copying codes. A dictionary lists
// its values in first-appearance order: over the states in id order, then
// over the edge-state records. The order depends only on the graph, not on
// the codes the writing process happened to give the values, so the
// encoding is fully deterministic: encoding the same snapshot always yields
// the same bytes, encode(decode(b)) == b, and byte-comparing two snapshot
// files is a valid graph-identity check (CI's resume-determinism job relies
// on this).
//
// Files of any other version, such as the value-per-cell versions 1 and 2
// of earlier builds, are rejected with errVersion: the cache removes them
// as a miss, and the cold build that follows stores the graph in this
// format.

const codecVersion = 3

// errVersion marks a file whose magic and header are intact but whose codec
// version is not codecVersion: another build's format, not damage.
var errVersion = errors.New("snapshot codec version")

var magic = [8]byte{'O', 'T', 'L', 'A', 'S', 'N', 'A', 'P'}

const (
	headerLen   = 8 + 2 + sha256.Size // magic + version + descSum
	checksumLen = sha256.Size
)

const (
	flagComplete = 1 << iota
	flagEdges
)

// Encode serializes a snapshot, binding it to the description digest. It
// fails if the states do not share one variable set (graphs always do; a
// caller handing anything else gets an error instead of a junk file).
// Encode feeds the content-addressed cache, so its output must be
// byte-exact across runs.
//
// aglint:deterministic
func Encode(snap *ts.Snapshot, descSum [sha256.Size]byte) ([]byte, error) {
	edges := len(snap.EdgeStates) > 0
	if edges && len(snap.EdgeStates) != len(snap.Targets) {
		return nil, fmt.Errorf("snapshot has %d edge states for %d targets", len(snap.EdgeStates), len(snap.Targets))
	}
	var lay state.Layout
	if len(snap.States) > 0 {
		lay = snap.States[0].Layout()
	}
	vars := lay.Vars()
	d := newDictEncoder(len(vars))
	for i, s := range snap.States {
		if s.Layout() != lay {
			return nil, fmt.Errorf("state %d binds %v, the table has %v", i, s.Vars(), vars)
		}
		d.add(s)
	}
	// Only the edge states that differ from their target get a row.
	var edgeRows []*state.State
	if edges {
		edgeRows = make([]*state.State, len(snap.EdgeStates))
		for k, es := range snap.EdgeStates {
			switch {
			case es == nil:
				return nil, fmt.Errorf("edge %d has nil real-successor state", k)
			case es.Equal(snap.States[snap.Targets[k]]):
				continue
			case es.Layout() != lay:
				return nil, fmt.Errorf("edge state %d binds %v, the table has %v", k, es.Vars(), vars)
			}
			d.add(es)
			edgeRows[k] = es
		}
	}

	var buf []byte
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersion)
	buf = append(buf, descSum[:]...)
	var flags byte
	if snap.Complete {
		flags |= flagComplete
	}
	if edges {
		flags |= flagEdges
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(snap.Level))
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, v := range vars {
		buf = appendString(buf, v)
	}
	for _, vals := range d.vals {
		buf = binary.AppendUvarint(buf, uint64(len(vals)))
		for _, val := range vals {
			buf = appendValue(buf, val)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.States)))
	for _, s := range snap.States {
		buf = d.appendRow(buf, s)
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.Inits)))
	for _, id := range snap.Inits {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	rows := snap.Rows()
	buf = binary.AppendUvarint(buf, uint64(rows))
	for i := 0; i < rows; i++ {
		buf = binary.AppendUvarint(buf, uint64(snap.Offsets[i+1]-snap.Offsets[i]))
	}
	for _, t := range snap.Targets {
		buf = binary.AppendUvarint(buf, uint64(t))
	}
	for _, es := range edgeRows {
		if es == nil {
			buf = append(buf, 0)
			continue
		}
		buf = d.appendRow(append(buf, 1), es)
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// dictEncoder builds the per-variable dictionaries of one snapshot. States
// over one layout share its per-variable codes, so a slice indexed by code
// finds a cell's dictionary index without hashing its value.
type dictEncoder struct {
	index [][]uint32      // index[i][code]: 1 + the dictionary index of code; 0 = not yet seen
	vals  [][]value.Value // vals[i]: variable i's dictionary, in first-appearance order
}

func newDictEncoder(nvars int) *dictEncoder {
	return &dictEncoder{index: make([][]uint32, nvars), vals: make([][]value.Value, nvars)}
}

// add enters every value of s not yet in its variable's dictionary.
func (d *dictEncoder) add(s *state.State) {
	for i, idx := range d.index {
		c := s.CodeAt(i)
		if int(c) >= len(idx) {
			idx = append(idx, make([]uint32, int(c)+1-len(idx))...)
			d.index[i] = idx
		}
		if idx[c] == 0 {
			d.vals[i] = append(d.vals[i], s.At(i))
			idx[c] = uint32(len(d.vals[i]))
		}
	}
}

// appendRow appends the dictionary indices of s, a state already added.
func (d *dictEncoder) appendRow(buf []byte, s *state.State) []byte {
	for i, idx := range d.index {
		buf = binary.AppendUvarint(buf, uint64(idx[s.CodeAt(i)]-1))
	}
	return buf
}

// Decode parses and verifies a snapshot file. Every failure mode names its
// cause: wrong magic, unsupported version, a description digest that does
// not match the requesting system, truncation, or checksum mismatch.
func Decode(data []byte, descSum [sha256.Size]byte) (*ts.Snapshot, error) {
	return decodeWith(data, descSum, true)
}

// decodeWith is Decode with the trailing-checksum verification switchable:
// verify=false exists solely for the MutDropChecksum durability mutant,
// which must demonstrably accept a corrupted file the real cache rejects.
func decodeWith(data []byte, descSum [sha256.Size]byte, verify bool) (*ts.Snapshot, error) {
	if len(data) < headerLen+1+checksumLen {
		return nil, fmt.Errorf("snapshot truncated: %d bytes", len(data))
	}
	if string(data[:8]) != string(magic[:]) {
		return nil, fmt.Errorf("bad snapshot magic %q", data[:8])
	}
	if version := binary.LittleEndian.Uint16(data[8:10]); version != codecVersion {
		return nil, fmt.Errorf("%w %d, this build reads %d", errVersion, version, codecVersion)
	}
	if subtle.ConstantTimeCompare(data[10:10+sha256.Size], descSum[:]) != 1 {
		return nil, fmt.Errorf("snapshot was written for a different system description")
	}
	payload := data[: len(data)-checksumLen : len(data)-checksumLen]
	if verify {
		sum := sha256.Sum256(payload)
		if subtle.ConstantTimeCompare(sum[:], data[len(data)-checksumLen:]) != 1 {
			return nil, fmt.Errorf("snapshot checksum mismatch (file corrupted)")
		}
	}

	r := &reader{buf: payload, off: headerLen}
	flags, err := r.byte()
	if err != nil {
		return nil, err
	}
	snap := &ts.Snapshot{Complete: flags&flagComplete != 0}
	level, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	snap.Level = int(level)

	// Every count is checked against the bytes left before anything is
	// sized from it: the checksum proves only that the file is intact, not
	// that its writer was correct.
	nvars, err := r.count("nvars")
	if err != nil {
		return nil, err
	}
	vars := make([]string, nvars)
	for i := range vars {
		if vars[i], err = r.string(); err != nil {
			return nil, err
		}
		if i > 0 && vars[i-1] >= vars[i] {
			return nil, fmt.Errorf("snapshot variable table is not sorted and distinct at %q", vars[i])
		}
	}
	sd := &stateDecoder{dicts: make([][]state.PosUpdate, nvars), ups: make([]state.PosUpdate, nvars)}
	tmpl := make(map[string]value.Value, nvars)
	for i := range sd.dicts {
		n, err := r.count("dictionary size")
		if err != nil {
			return nil, err
		}
		dict := make([]state.PosUpdate, n)
		for j := range dict {
			if dict[j].Val, err = r.value(0); err != nil {
				return nil, err
			}
			dict[j].Pos = i
		}
		sd.dicts[i] = dict
		if n > 0 {
			tmpl[vars[i]] = dict[0].Val
		}
	}
	// Intern every dictionary value once; the states below copy its code.
	// A variable with an empty dictionary leaves the template unbuilt, but
	// then every row fails that variable's index check before using it.
	if len(tmpl) == nvars {
		sd.tmpl = state.New(tmpl)
		for _, dict := range sd.dicts {
			sd.tmpl.Resolve(dict)
		}
	}
	nstates, err := r.count("nstates")
	if err != nil {
		return nil, err
	}
	switch {
	case nvars == 0 && nstates > 1:
		// States binding no variables are all one state, and a graph holds
		// each state once.
		return nil, fmt.Errorf("snapshot has %d states binding no variables", nstates)
	case nvars > 0 && nstates > r.left()/nvars:
		return nil, fmt.Errorf("snapshot nstates×nvars %d×%d exceeds the %d bytes left at offset %d", nstates, nvars, r.left(), r.off)
	}
	snap.States = make([]*state.State, nstates)
	for i := range snap.States {
		if snap.States[i], err = sd.next(r); err != nil {
			return nil, err
		}
	}
	ninits, err := r.count("ninits")
	if err != nil {
		return nil, err
	}
	snap.Inits = make([]int, ninits)
	for i := range snap.Inits {
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		snap.Inits[i] = int(id)
	}
	nrows, err := r.count("nrows")
	if err != nil {
		return nil, err
	}
	snap.Offsets = make([]int, nrows+1)
	total := 0
	for i := 0; i < nrows; i++ {
		snap.Offsets[i] = total
		n, err := r.count("row length")
		if err != nil {
			return nil, err
		}
		if total += n; total > r.left() {
			return nil, fmt.Errorf("snapshot total targets %d exceeds the %d bytes left at offset %d", total, r.left(), r.off)
		}
	}
	snap.Offsets[nrows] = total
	snap.Targets = make([]int32, total)
	for i := range snap.Targets {
		t, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if t >= uint64(nstates) {
			return nil, fmt.Errorf("edge %d target %d out of range", i, t)
		}
		snap.Targets[i] = int32(t)
	}
	if flags&flagEdges != 0 {
		if total > r.left() {
			return nil, fmt.Errorf("snapshot %d edge-state records exceed the %d bytes left at offset %d", total, r.left(), r.off)
		}
		snap.EdgeStates = make([]*state.State, total)
		for k := range snap.EdgeStates {
			marker, err := r.byte()
			if err != nil {
				return nil, err
			}
			switch marker {
			case 0:
				snap.EdgeStates[k] = snap.States[snap.Targets[k]]
			case 1:
				if snap.EdgeStates[k], err = sd.next(r); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("edge %d has unknown marker %d", k, marker)
			}
		}
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("snapshot has %d trailing bytes", len(r.buf)-r.off)
	}
	return snap, nil
}

// stateDecoder reads rows of dictionary indices. dicts[i] holds variable
// i's dictionary as updates resolved against tmpl, so a state is one row
// copy of tmpl with the indexed updates applied: no value is read or
// interned per state.
type stateDecoder struct {
	tmpl  *state.State
	dicts [][]state.PosUpdate
	ups   []state.PosUpdate
}

func (d *stateDecoder) next(r *reader) (*state.State, error) {
	for i, dict := range d.dicts {
		j, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if j >= uint64(len(dict)) {
			return nil, fmt.Errorf("snapshot index %d past the %d values of variable %d at offset %d", j, len(dict), i, r.off)
		}
		d.ups[i] = dict[j]
	}
	return d.tmpl.CloneWith(d.ups), nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendValue encodes a value: kind byte, then the payload (bool: one byte;
// int: zigzag varint; string: length-prefixed bytes; tuple: length then
// elements).
func appendValue(buf []byte, v value.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case value.KindBool:
		b, _ := v.AsBool()
		if b {
			return append(buf, 1)
		}
		return append(buf, 0)
	case value.KindInt:
		i, _ := v.AsInt()
		return binary.AppendVarint(buf, i)
	case value.KindString:
		s, _ := v.AsString()
		return appendString(buf, s)
	default: // KindTuple; invalid kinds cannot reach a built graph
		elems := v.Elems()
		buf = binary.AppendUvarint(buf, uint64(len(elems)))
		for _, e := range elems {
			buf = appendValue(buf, e)
		}
		return buf
	}
}

// maxNesting bounds tuple recursion during decode; no graph in this
// repository nests values remotely this deep, and the bound keeps a crafted
// file from exhausting the stack.
const maxNesting = 64

// reader is a bounds-checked cursor over the verified payload.
type reader struct {
	buf []byte
	off int
}

// left returns the number of unread payload bytes.
func (r *reader) left() int { return len(r.buf) - r.off }

// count reads an element count and rejects one larger than the bytes left:
// every element a count announces takes at least one byte, so a larger
// count is corrupt, and trusting it would size an allocation from the file.
func (r *reader) count(what string) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.left()) {
		return 0, fmt.Errorf("snapshot %s %d exceeds the %d bytes left at offset %d", what, n, r.left(), r.off)
	}
	return int(n), nil
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, fmt.Errorf("snapshot truncated at offset %d", r.off)
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if uint64(len(r.buf)-r.off) < n {
		return "", fmt.Errorf("string of %d bytes overruns snapshot at offset %d", n, r.off)
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) value(depth int) (value.Value, error) {
	if depth > maxNesting {
		return value.Value{}, fmt.Errorf("value nesting exceeds %d", maxNesting)
	}
	k, err := r.byte()
	if err != nil {
		return value.Value{}, err
	}
	switch value.Kind(k) {
	case value.KindBool:
		b, err := r.byte()
		if err != nil {
			return value.Value{}, err
		}
		return value.Bool(b != 0), nil
	case value.KindInt:
		i, err := r.varint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Int(i), nil
	case value.KindString:
		s, err := r.string()
		if err != nil {
			return value.Value{}, err
		}
		return value.Str(s), nil
	case value.KindTuple:
		n, err := r.uvarint()
		if err != nil {
			return value.Value{}, err
		}
		if uint64(len(r.buf)-r.off) < n {
			return value.Value{}, fmt.Errorf("tuple of %d elements overruns snapshot", n)
		}
		elems := make([]value.Value, n)
		for i := range elems {
			if elems[i], err = r.value(depth + 1); err != nil {
				return value.Value{}, err
			}
		}
		return value.Tuple(elems...), nil
	default:
		return value.Value{}, fmt.Errorf("unknown value kind %d at offset %d", k, r.off-1)
	}
}
