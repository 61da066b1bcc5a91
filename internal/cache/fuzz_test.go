package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/ts"
)

// fig9Closure is the Fig. 9 N=1 K=2 closure-LHS system, C(E) ∧ ⋀C(Mⱼ), as
// the Composition Theorem check builds it for hypotheses 1 and 2a,
// optionally under the theorem's symmetry.
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
// The seeds are real Encode output: a complete graph (version 1), a
// budget-interrupted checkpoint, and a symmetry-reduced graph carrying
// per-edge real successors (version 2).
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
	sys.Cache, sys.MaxStates = c, 40
	if _, err := sys.Build(); err == nil {
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
// pins the error each count now gets.
func TestCodecHostileCounts(t *testing.T) {
	uv := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	cases := map[string]struct {
		payload []byte // after the flags byte and the level
		want    string
	}{
		"nvars":         {uv(1 << 62), "nvars"},
		"nstates":       {uv(0, 1<<40), "nstates"},
		"empty states":  {uv(0, 2, 0, 0), "2 states binding no variables"},
		"nstates×nvars": {uv(2, 1, 'x', 1, 'y', 2, 0, 0), "nstates×nvars"},
		"ninits":        {uv(0, 0, 1<<40), "ninits"},
		"nrows":         {uv(0, 0, 0, 1<<64-1), "nrows"},
		"row length":    {uv(0, 0, 0, 1, 1<<40), "row length"},
		"total targets": {uv(0, 0, 0, 2, 1, 1, 0), "total targets"},
		"target range":  {uv(0, 0, 0, 1, 1, 0), "out of range"},
	}
	_, sum := Digest("hostile")
	for name, tc := range cases {
		data := append(append([]byte(nil), magic[:]...), codecVersion, 0)
		data = append(data, sum[:]...)
		data = append(data, 1, 0) // flags: complete; level 0
		data = append(data, tc.payload...)
		data = append(data, make([]byte, checksumLen)...)
		reseal(data)
		snap, err := Decode(data, sum)
		if err == nil || snap != nil {
			t.Errorf("%s: decode accepted a hostile count", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", name, err, tc.want)
		}
	}
}
