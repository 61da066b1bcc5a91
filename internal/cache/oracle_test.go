package cache

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/arbiter"
	"opentla/internal/circular"
	"opentla/internal/engine"
	"opentla/internal/models"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// roundTrip holds one snapshot to the codec's contract: decoding its
// encoding gives back the same graph (states Equal in id order, the same
// inits, offsets, targets and edge states), and re-encoding the decoded
// snapshot gives back the same bytes.
func roundTrip(t *testing.T, what string, snap *ts.Snapshot) {
	t.Helper()
	_, sum := Digest(what)
	data, err := Encode(snap, sum)
	if err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	got, err := Decode(data, sum)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if err := sameSnapshot(snap, got); err != nil {
		t.Fatalf("%s: decoded snapshot differs: %v", what, err)
	}
	again, err := Encode(got, sum)
	if err != nil {
		t.Fatalf("%s: re-encode: %v", what, err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("%s: encode(decode(b)) != b", what)
	}
}

// oracleCache is a GraphCache that misses every load and round-trips every
// graph and checkpoint handed to it, so a check run over it puts each graph
// it builds through the codec.
type oracleCache struct {
	t                        *testing.T
	graphs, products, ckpts  int
	edgeRecords, edgeOwnRows int
}

func (o *oracleCache) Load(string) (*ts.Snapshot, error)           { return nil, nil }
func (o *oracleCache) LoadCheckpoint(string) (*ts.Snapshot, error) { return nil, nil }

func (o *oracleCache) Store(desc string, snap *ts.Snapshot) error {
	o.graphs++
	if strings.Contains(desc, "\nproduct:\n") {
		o.products++
	}
	o.countEdges(snap)
	roundTrip(o.t, firstLine(desc), snap)
	return nil
}

func (o *oracleCache) StoreCheckpoint(desc string, snap *ts.Snapshot) error {
	o.ckpts++
	roundTrip(o.t, "checkpoint of "+firstLine(desc), snap)
	return nil
}

// countEdges tallies edge-state records, and those that get a row of their
// own because the real successor is not the target.
func (o *oracleCache) countEdges(snap *ts.Snapshot) {
	for k, es := range snap.EdgeStates {
		o.edgeRecords++
		if !es.Equal(snap.States[snap.Targets[k]]) {
			o.edgeOwnRows++
		}
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// TestCodecRoundTripRegistry round-trips every graph of every registry
// model, unreduced and under its declared symmetry, and every graph each
// agcheck theorem builds: the left-hand-side and guarantees-only graphs,
// the +v monitor product, the symmetry-reduced guarantees-only graph and
// product with their edge states, and a budget-stopped checkpoint.
func TestCodecRoundTripRegistry(t *testing.T) {
	oc := &oracleCache{t: t}
	for _, m := range models.All() {
		g, err := m.System().Build()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		roundTrip(t, m.Name, g.Snapshot())
		if m.Symmetry == nil {
			continue
		}
		sys := m.System()
		sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: m.Symmetry}
		if g, err = sys.Build(); err != nil {
			t.Fatalf("%s -reduce sym: %v", m.Name, err)
		}
		oc.countEdges(g.Snapshot())
		roundTrip(t, m.Name+" -reduce sym", g.Snapshot())
	}

	cfg := queue.Config{N: 1, Vals: 2}
	for _, tc := range []struct {
		name string
		mk   func() *ag.Theorem
		sym  *reduce.Symmetry
	}{
		{"queues", cfg.Fig9Theorem, cfg.DoubleSymmetry()},
		{"corollary", cfg.CorollaryTheorem, nil},
		{"circular", circular.SafetyTheorem, nil},
		{"arbiter", arbiter.Theorem, nil},
	} {
		for _, opts := range []reduce.Options{{}, {Sym: true}} {
			if opts.Sym && tc.sym == nil {
				continue
			}
			th := tc.mk()
			th.Cache, th.Reduce, th.Symmetry = oc, opts, tc.sym
			if _, err := th.Check(); err != nil {
				t.Fatalf("%s -reduce %s: %v", tc.name, opts, err)
			}
		}
	}

	sys := fig9Closure(false)
	sys.Cache = oc
	if _, err := sys.BuildWith(engine.Budget{MaxStates: 40}.Meter()); err == nil {
		t.Fatal("a 40-state budget did not interrupt the build")
	}
	if oc.products == 0 || oc.ckpts == 0 || oc.edgeOwnRows == 0 || oc.edgeOwnRows == oc.edgeRecords {
		t.Errorf("graph kinds not all covered: %d graphs, %d products, %d checkpoints, %d of %d edge states with rows of their own",
			oc.graphs, oc.products, oc.ckpts, oc.edgeOwnRows, oc.edgeRecords)
	}
}

// TestCodecDictionaryOrder pins the layout of a small snapshot, byte for
// byte, after interning its values in the reverse of the order the states
// list them: each dictionary lists its values in first-appearance order
// over the states, whatever codes the process gave them, and each state is
// a row of indices into those dictionaries.
func TestCodecDictionaryOrder(t *testing.T) {
	// Variable names no other test binds, so these codes are the test's own.
	for _, v := range []int64{9, 7, 5} {
		state.FromPairs("dictord_a", value.Int(v), "dictord_b", value.Str("s"))
	}
	st := func(a int64, b string) *state.State {
		return state.FromPairs("dictord_a", value.Int(a), "dictord_b", value.Str(b))
	}
	snap := &ts.Snapshot{
		Complete: true,
		States:   []*state.State{st(5, "s"), st(7, "t"), st(9, "s"), st(5, "t")},
		Inits:    []int{0},
		Offsets:  []int{0, 1, 2, 3, 4},
		Targets:  []int32{1, 2, 3, 0},
	}
	_, sum := Digest("dictionary order")
	data, err := Encode(snap, sum)
	if err != nil {
		t.Fatal(err)
	}
	uv := func(b []byte, xs ...uint64) []byte {
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	want := append(append([]byte(nil), magic[:]...), codecVersion, 0)
	want = append(want, sum[:]...)
	want = append(want, flagComplete, 0) // flags; level
	want = uv(want, 2)
	want = appendString(want, "dictord_a")
	want = appendString(want, "dictord_b")
	want = uv(want, 3)
	for _, v := range []int64{5, 7, 9} {
		want = appendValue(want, value.Int(v))
	}
	want = uv(want, 2)
	want = appendValue(appendValue(want, value.Str("s")), value.Str("t"))
	want = uv(want, 4, 0, 0, 1, 1, 2, 0, 0, 1) // the states' rows
	want = uv(want, 1, 0)                      // inits
	want = uv(want, 4, 1, 1, 1, 1, 1, 2, 3, 0) // row lengths, then targets
	if payload := data[:len(data)-checksumLen]; !bytes.Equal(payload, want) {
		t.Errorf("snapshot payload\n got %x\nwant %x", payload, want)
	}
	roundTrip(t, "dictionary order", snap)
}

// TestPreviousFormatEntriesMissCleanly runs a Fig. 9 N=1 K=2 check over a
// cache filled by a build that wrote value-per-cell snapshots (codec version
// 1, testdata/v1-fig9-n1-k2). Every old entry is a plain miss, not
// corruption: the check rebuilds cold and gets the cold verdict, nothing is
// quarantined, fsck finds nothing afterwards, and each key ends up holding
// a readable entry in the current format.
func TestPreviousFormatEntriesMissCleanly(t *testing.T) {
	const fixture = "testdata/v1-fig9-n1-k2"
	ents, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var names []string
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint16(data[8:10]); v != 1 {
			t.Fatalf("fixture %s has codec version %d, want 1", e.Name(), v)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
	}
	if len(names) != 3 {
		t.Fatalf("fixture holds %d entries, want Fig. 9's 3 graphs", len(names))
	}

	cfg := queue.Config{N: 1, Vals: 2}
	cold, err := cfg.Fig9Theorem().Check()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	th := cfg.Fig9Theorem()
	th.Cache = c
	m := engine.NoLimit()
	rec := obs.New(m)
	c.SetNotify(m.Note)
	got, err := th.CheckWith(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != cold.Verdict || got.String() != cold.String() {
		t.Errorf("over the old cache:\n%s\ncold:\n%s", got, cold)
	}
	if st := rec.CacheStats(); st.Misses != 3 || st.Hits != 0 || st.Corrupt != 0 || st.Quarantined != 0 {
		t.Errorf("cache stats %+v, want 3 misses and nothing corrupt or quarantined", st)
	}

	res, err := c.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != len(names) || len(res.Findings) != 0 {
		t.Errorf("fsck scanned %d entries with findings %v, want %d entries and no findings", res.Scanned, res.Findings, len(names))
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("no entry rebuilt under %s: %v", name, err)
		}
		if v := binary.LittleEndian.Uint16(data[8:10]); v != codecVersion {
			t.Errorf("%s rebuilt with codec version %d, want %d", name, v, codecVersion)
		}
	}
}
