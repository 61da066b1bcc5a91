package cache

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
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
//	flags    byte     bit 0: complete graph (vs checkpoint)
//	level    varint   next BFS level (checkpoints)
//	nvars    varint   shared variable-name table (every state in one graph
//	                  binds the same variable set); names are len-prefixed
//	nstates  varint   per state, one value per table entry, in table order
//	ninits   varint   initial-state ids
//	nrows    varint   committed CSR row lengths, then all targets
//	edges    (version 2 only) per target, one edge-state record: a 0 byte
//	                  when the edge's real successor IS the target state, or
//	                  a 1 byte followed by the state's values in table order
//	checksum [32]byte SHA-256 of everything above
//
// Version 1 has no edge section; snapshots without edge states (the
// overwhelmingly common case — every unreduced graph) are still written as
// version 1, byte-identical to what earlier builds produced, so existing
// cache entries stay valid and the resume-determinism byte comparison is
// unaffected. Symmetry-reduced snapshots carry per-edge real successors and
// are written as version 2; the decoder accepts both.
//
// The encoding is fully deterministic: encoding the same snapshot always
// yields the same bytes, so byte-comparing two snapshot files is a valid
// graph-identity check (CI's resume-determinism job relies on this).

const (
	codecVersion      = 1
	codecVersionEdges = 2
)

var magic = [8]byte{'O', 'T', 'L', 'A', 'S', 'N', 'A', 'P'}

const (
	headerLen   = 8 + 2 + sha256.Size // magic + version + descSum
	checksumLen = sha256.Size
)

// Encode serializes a snapshot, binding it to the description digest. It
// fails if the states do not share one variable set (graphs always do; a
// caller handing anything else gets an error instead of a junk file).
// Encode feeds the content-addressed cache, so its output must be
// byte-exact across runs.
//
// aglint:deterministic
func Encode(snap *ts.Snapshot, descSum [sha256.Size]byte) ([]byte, error) {
	var buf []byte
	buf = append(buf, magic[:]...)
	version := uint16(codecVersion)
	if len(snap.EdgeStates) > 0 {
		if len(snap.EdgeStates) != len(snap.Targets) {
			return nil, fmt.Errorf("snapshot has %d edge states for %d targets", len(snap.EdgeStates), len(snap.Targets))
		}
		version = codecVersionEdges
	}
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = append(buf, descSum[:]...)
	var flags byte
	if snap.Complete {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(snap.Level))

	var vars []string
	if len(snap.States) > 0 {
		vars = snap.States[0].Vars()
	}
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, v := range vars {
		buf = appendString(buf, v)
	}
	buf = binary.AppendUvarint(buf, uint64(len(snap.States)))
	for i, s := range snap.States {
		if s.Len() != len(vars) {
			return nil, fmt.Errorf("state %d binds %d variables, table has %d", i, s.Len(), len(vars))
		}
		for _, v := range vars {
			val, ok := s.Get(v)
			if !ok {
				return nil, fmt.Errorf("state %d does not bind %q", i, v)
			}
			buf = appendValue(buf, val)
		}
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
	if version == codecVersionEdges {
		for k, es := range snap.EdgeStates {
			if es == nil {
				return nil, fmt.Errorf("edge %d has nil real-successor state", k)
			}
			// Most real successors equal their canonical target; a single
			// marker byte avoids re-encoding the state.
			if es.Equal(snap.States[snap.Targets[k]]) {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			if es.Len() != len(vars) {
				return nil, fmt.Errorf("edge state %d binds %d variables, table has %d", k, es.Len(), len(vars))
			}
			for _, v := range vars {
				val, ok := es.Get(v)
				if !ok {
					return nil, fmt.Errorf("edge state %d does not bind %q", k, v)
				}
				buf = appendValue(buf, val)
			}
		}
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
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
	version := binary.LittleEndian.Uint16(data[8:10])
	if version != codecVersion && version != codecVersionEdges {
		return nil, fmt.Errorf("snapshot version %d, this build reads %d and %d", version, codecVersion, codecVersionEdges)
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
	snap := &ts.Snapshot{Complete: flags&1 != 0}
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
	binding := make(map[string]value.Value, len(vars))
	for i := range snap.States {
		for _, v := range vars {
			val, err := r.value(0)
			if err != nil {
				return nil, err
			}
			binding[v] = val
		}
		snap.States[i] = state.New(binding)
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
	if version == codecVersionEdges {
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
				for _, v := range vars {
					val, err := r.value(0)
					if err != nil {
						return nil, err
					}
					binding[v] = val
				}
				snap.EdgeStates[k] = state.New(binding)
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
