package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// fig9Closure is the Fig. 9 N=1 K=2 system C(E) ∧ ⋀C(Mⱼ), optionally under
// the theorem's symmetry. Its graph is that of the Composition Theorem
// check's left-hand side (fairness adds no states), so it seeds the decoder
// with a real graph, reduced or not.
func fig9Closure(sym bool) *ts.System {
	cfg := queue.Config{N: 1, Vals: 2}
	th := cfg.Fig9Theorem()
	sys := &ts.System{Name: "fig9-closure", Domains: th.Domains, Workers: 1}
	sys.Components = append(sys.Components, th.Concl.Env.SafetyOnly())
	for _, p := range th.Pairs {
		if p.Sys != nil {
			sys.Components = append(sys.Components, p.Sys.SafetyOnly())
		}
		sys.Constraints = append(sys.Constraints, p.Constraints...)
	}
	if sym {
		sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}
	}
	return sys
}

// reseal overwrites the trailing checksum with the SHA-256 of everything
// before it, so a mutated input reaches the payload decoder.
func reseal(data []byte) {
	payload := data[:len(data)-checksumLen]
	sum := sha256.Sum256(payload)
	copy(data[len(payload):], sum[:])
}

// FuzzDecode holds the snapshot decoder to two properties on any input
// whose checksum is valid: it never panics (nor sizes an allocation from a
// count the payload cannot back), and every snapshot it accepts re-encodes
// and decodes to an equal snapshot. The description digest is taken from
// the input, so mutations are not all stopped at the header.
//
// The seeds are real Encode output: a complete graph, a budget-interrupted
// checkpoint, and a symmetry-reduced graph carrying per-edge real
// successors (edge-state records whose rows index the same dictionaries).
func FuzzDecode(f *testing.F) {
	_, sum := Digest("fuzz")
	encode := func(snap *ts.Snapshot) {
		data, err := Encode(snap, sum)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, sym := range []bool{false, true} {
		g, err := fig9Closure(sym).Build()
		if err != nil {
			f.Fatal(err)
		}
		encode(g.Snapshot())
	}
	c, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	sys := fig9Closure(false)
	sys.Cache = c
	if _, err := sys.BuildWith(engine.Budget{MaxStates: 40}.Meter()); err == nil {
		f.Fatal("a 40-state budget did not interrupt the build")
	}
	ck, err := os.ReadFile(c.CheckpointPath(sys.CanonicalDesc()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ck)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < headerLen+checksumLen {
			if _, err := Decode(data, sum); err == nil {
				t.Fatalf("decoded a %d-byte input", len(data))
			}
			return
		}
		data = append([]byte(nil), data...)
		reseal(data)
		var desc [sha256.Size]byte
		copy(desc[:], data[10:])
		snap, err := Decode(data, desc)
		if err != nil {
			return
		}
		enc, err := Encode(snap, desc)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := Decode(enc, desc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if err := sameSnapshot(snap, again); err != nil {
			t.Fatalf("re-encoded snapshot differs: %v", err)
		}
	})
}

// Two of the checked-in crashers panic a decoder that trusts the counts: an
// nvars of 2^62 (makeslice: len out of range) and an nrows of MaxUint64
// (nrows+1 wraps to an empty offsets slice). The third, zero-var-states,
// holds states that bind no variables behind overlong varints; it caught a
// bound that its own canonical re-encoding failed. TestCodecHostileCounts
// pins the error each count now gets, and the error of each index or
// record that the rows of dictionary indices can get wrong.
func TestCodecHostileCounts(t *testing.T) {
	uv := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	// A one-entry dictionary holding the integer 0.
	const kInt = uint64(value.KindInt)
	cases := map[string]struct {
		flags   byte   // 1: complete; 3: complete, with edge-state records
		payload []byte // after the flags byte and the level
		want    string
	}{
		"nvars":           {1, uv(1 << 62), "nvars"},
		"variable order":  {1, uv(2, 1, 'y', 1, 'x'), "not sorted and distinct"},
		"dictionary size": {1, uv(1, 1, 'x', 1<<40), "dictionary size"},
		"nstates":         {1, uv(0, 1<<40), "nstates"},
		"empty states":    {1, uv(0, 2, 0, 0), "2 states binding no variables"},
		"nstates×nvars":   {1, uv(2, 1, 'x', 1, 'y', 1, kInt, 0, 1, kInt, 0, 2, 0, 0), "nstates×nvars"},
		"index":           {1, uv(1, 1, 'x', 1, kInt, 0, 1, 1), "index 1 past the 1 values"},
		"empty dict":      {1, uv(1, 1, 'x', 0, 1, 0), "index 0 past the 0 values"},
		"row cut short":   {1, append(uv(2, 1, 'x', 1, 'y', 1, kInt, 0, 1, kInt, 0, 1, 0), 0x80), "bad varint"},
		"ninits":          {1, uv(0, 0, 1<<40), "ninits"},
		"nrows":           {1, uv(0, 0, 0, 1<<64-1), "nrows"},
		"row length":      {1, uv(0, 0, 0, 1, 1<<40), "row length"},
		"total targets":   {1, uv(0, 0, 0, 2, 1, 1, 0), "total targets"},
		"target range":    {1, uv(0, 0, 0, 1, 1, 0), "out of range"},
		"edge records":    {3, uv(0, 1, 0, 1, 1, 0), "edge-state records"},
		"edge cut short":  {3, uv(1, 1, 'x', 1, kInt, 0, 1, 0, 0, 1, 1, 0, 1), "bad varint"},
		"edge marker":     {3, uv(1, 1, 'x', 1, kInt, 0, 1, 0, 0, 1, 1, 0, 2), "unknown marker"},
	}
	_, sum := Digest("hostile")
	for name, tc := range cases {
		data := append(append([]byte(nil), magic[:]...), codecVersion, 0)
		data = append(data, sum[:]...)
		data = append(data, tc.flags, 0) // flags; level 0
		data = append(data, tc.payload...)
		data = append(data, make([]byte, checksumLen)...)
		reseal(data)
		snap, err := Decode(data, sum)
		if err == nil || snap != nil {
			t.Errorf("%s: decode accepted a hostile input", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", name, err, tc.want)
		}
	}
}
