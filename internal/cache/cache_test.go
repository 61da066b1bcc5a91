package cache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// pairSystem mirrors the ts test fixture: two independent counters, wide
// enough for multi-state BFS levels (so checkpoints carry real structure).
func pairSystem(top int64) *ts.System {
	mk := func(name, v string) *spec.Component {
		inc := form.And(
			form.Lt(form.Var(v), form.IntC(top)),
			form.Eq(form.PrimedVar(v), form.Add(form.Var(v), form.IntC(1))),
		)
		return &spec.Component{
			Name:    name,
			Outputs: []string{v},
			Init:    form.Eq(form.Var(v), form.IntC(0)),
			Actions: []spec.Action{{Name: "Inc", Def: inc}},
		}
	}
	return &ts.System{
		Name:       "pair",
		Components: []*spec.Component{mk("cx", "x"), mk("cy", "y")},
		Domains: map[string][]value.Value{
			"x": value.Ints(0, top),
			"y": value.Ints(0, top),
		},
	}
}

// signature renders a graph's observable structure for identity checks.
func signature(g *ts.Graph) string {
	var sb strings.Builder
	for id, s := range g.States {
		fmt.Fprintf(&sb, "%d:%s\n", id, s.Key())
	}
	fmt.Fprintf(&sb, "inits:%v\n", g.Inits)
	for id := range g.States {
		fmt.Fprintf(&sb, "%d ->", id)
		g.ForEachSuccEdge(id, func(_, to int) bool {
			fmt.Fprintf(&sb, " %d", to)
			return true
		})
		sb.WriteByte('\n')
	}
	return sb.String()
}

func buildSnapshot(t *testing.T) *ts.Snapshot {
	t.Helper()
	g, err := pairSystem(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	return g.Snapshot()
}

func sameSnapshot(a, b *ts.Snapshot) error {
	if a.Complete != b.Complete || a.Level != b.Level {
		return fmt.Errorf("header: (%v,%d) vs (%v,%d)", a.Complete, a.Level, b.Complete, b.Level)
	}
	if len(a.States) != len(b.States) {
		return fmt.Errorf("state count: %d vs %d", len(a.States), len(b.States))
	}
	for i := range a.States {
		if !a.States[i].Equal(b.States[i]) {
			return fmt.Errorf("state %d: %s vs %s", i, a.States[i], b.States[i])
		}
	}
	if fmt.Sprint(a.Inits) != fmt.Sprint(b.Inits) {
		return fmt.Errorf("inits: %v vs %v", a.Inits, b.Inits)
	}
	if fmt.Sprint(a.Offsets) != fmt.Sprint(b.Offsets) {
		return fmt.Errorf("offsets: %v vs %v", a.Offsets, b.Offsets)
	}
	if fmt.Sprint(a.Targets) != fmt.Sprint(b.Targets) {
		return fmt.Errorf("targets: %v vs %v", a.Targets, b.Targets)
	}
	if len(a.EdgeStates) != len(b.EdgeStates) {
		return fmt.Errorf("edge states: %d vs %d", len(a.EdgeStates), len(b.EdgeStates))
	}
	for k := range a.EdgeStates {
		if !a.EdgeStates[k].Equal(b.EdgeStates[k]) {
			return fmt.Errorf("edge state %d: %s vs %s", k, a.EdgeStates[k], b.EdgeStates[k])
		}
	}
	return nil
}

func TestCodecRoundTrip(t *testing.T) {
	snap := buildSnapshot(t)
	_, sum := Digest("pair-desc")
	data, err := Encode(snap, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSnapshot(snap, got); err != nil {
		t.Error(err)
	}
	// Determinism: re-encoding yields identical bytes (the byte-comparison
	// contract of the resume-determinism CI job).
	data2, err := Encode(snap, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encoding is not deterministic")
	}
	// Re-encoding the decoded snapshot also round-trips to the same bytes.
	data3, err := Encode(got, sum)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data3) {
		t.Error("decode→encode does not reproduce the original bytes")
	}
}

// TestParallelSnapshotBytesIdentical pins the strongest form of the
// worker-count determinism guarantee across the partitioned parallel
// barrier: the encoded snapshot of a parallel build is byte-for-byte the
// sequential one's, so cache entries and resume inputs never depend on the
// worker count. Run with -race and -cpu 1,4,8 (CI does).
func TestParallelSnapshotBytesIdentical(t *testing.T) {
	_, sum := Digest("pair-desc")
	encode := func(workers int) []byte {
		sys := pairSystem(4)
		sys.Workers = workers
		g, err := sys.Build()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := Encode(g.Snapshot(), sum)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return data
	}
	want := encode(1)
	for _, workers := range []int{2, 4, 8} {
		if !bytes.Equal(encode(workers), want) {
			t.Errorf("snapshot bytes at workers=%d differ from sequential", workers)
		}
	}
}

func TestCodecRoundTripValues(t *testing.T) {
	// One state exercising every value kind, including nested tuples and
	// negative integers (zigzag path).
	s := state.FromPairs(
		"b", value.False,
		"i", value.Int(-1234567),
		"s", value.Str("hello \"world\""),
		"t", value.Tuple(value.Int(1), value.Tuple(value.Str(""), value.True), value.Empty),
	)
	snap := &ts.Snapshot{
		Complete: true,
		States:   []*state.State{s},
		Inits:    []int{0},
		Offsets:  []int{0, 1},
		Targets:  []int32{0},
	}
	_, sum := Digest("values")
	data, err := Encode(snap, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSnapshot(snap, got); err != nil {
		t.Error(err)
	}
}

func TestCodecEmptyGraph(t *testing.T) {
	// A vacuous monitor product has zero states; its snapshot must survive
	// the trip.
	snap := &ts.Snapshot{Complete: true, Offsets: []int{0}}
	_, sum := Digest("empty")
	data, err := Encode(snap, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.States) != 0 || got.Rows() != 0 || len(got.Targets) != 0 {
		t.Errorf("got %d states, %d rows, %d targets", len(got.States), got.Rows(), len(got.Targets))
	}
}

func TestCodecCheckpointRoundTrip(t *testing.T) {
	full := buildSnapshot(t)
	// Fake a checkpoint: only the first two rows committed.
	ck := &ts.Snapshot{
		Complete: false,
		Level:    2,
		States:   full.States,
		Inits:    full.Inits,
		Offsets:  full.Offsets[:3],
		Targets:  full.Targets[:full.Offsets[2]],
	}
	_, sum := Digest("ck")
	data, err := Encode(ck, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data, sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSnapshot(ck, got); err != nil {
		t.Error(err)
	}
}

// TestCodecCorruptionCatalog feeds the decoder every corruption class the
// cache must survive: each must produce an error, never a panic and never a
// silently wrong snapshot.
func TestCodecCorruptionCatalog(t *testing.T) {
	snap := buildSnapshot(t)
	_, sum := Digest("catalog")
	data, err := Encode(snap, sum)
	if err != nil {
		t.Fatal(err)
	}
	_, otherSum := Digest("a different system")

	cases := map[string]struct {
		data []byte
		sum  [32]byte
		want string
	}{
		"empty":      {nil, sum, "truncated"},
		"tiny":       {data[:10], sum, "truncated"},
		"headerOnly": {data[:headerLen], sum, "truncated"},
		"truncated":  {data[:len(data)-15], sum, "checksum"},
		"badMagic": {func() []byte {
			d := append([]byte(nil), data...)
			d[0] = 'X'
			return d
		}(), sum, "magic"},
		"versionMismatch": {func() []byte {
			d := append([]byte(nil), data...)
			d[8], d[9] = 0xFF, 0xFF
			return d
		}(), sum, "version"},
		"wrongSystem": {data, otherSum, "different system"},
		"bitFlip": {func() []byte {
			d := append([]byte(nil), data...)
			d[headerLen+20] ^= 0x40 // payload byte: checksum must catch it
			return d
		}(), sum, "checksum"},
		"trailingGarbage": {append(append([]byte(nil), data...), 0xAB), sum, "checksum"},
	}
	for name, tc := range cases {
		got, err := Decode(tc.data, tc.sum)
		if err == nil {
			t.Errorf("%s: decode succeeded on corrupt input", name)
			continue
		}
		if got != nil {
			t.Errorf("%s: corrupt decode returned a snapshot", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

func TestCacheStoreLoad(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const desc = "system A"
	if snap, err := c.Load(desc); snap != nil || err != nil {
		t.Fatalf("empty cache: Load = (%v, %v), want (nil, nil)", snap, err)
	}
	snap := buildSnapshot(t)
	if err := c.Store(desc, snap); err != nil {
		t.Fatal(err)
	}
	got, err := c.Load(desc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSnapshot(snap, got); err != nil {
		t.Error(err)
	}
	// A different description is a different key.
	if snap2, err := c.Load("system B"); snap2 != nil || err != nil {
		t.Errorf("other desc: Load = (%v, %v), want (nil, nil)", snap2, err)
	}
}

func TestCacheStoreClearsCheckpoint(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const desc = "ck system"
	snap := buildSnapshot(t)
	ck := &ts.Snapshot{Level: 1, States: snap.States[:1], Inits: []int{0}, Offsets: []int{0}}
	if err := c.StoreCheckpoint(desc, ck); err != nil {
		t.Fatal(err)
	}
	if got, err := c.LoadCheckpoint(desc); err != nil || got == nil {
		t.Fatalf("LoadCheckpoint = (%v, %v)", got, err)
	}
	if err := c.Store(desc, snap); err != nil {
		t.Fatal(err)
	}
	if got, err := c.LoadCheckpoint(desc); got != nil || err != nil {
		t.Errorf("checkpoint should be cleared by Store, got (%v, %v)", got, err)
	}
}

// TestCorruptFilesFallBackToColdBuild is the end-to-end corruption test: a
// damaged cache entry must degrade to a cold build producing the identical
// graph, with the entry repaired afterwards.
func TestCorruptFilesFallBackToColdBuild(t *testing.T) {
	clean, err := pairSystem(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	want := signature(clean)

	corrupt := func(name string, mutate func(path string) error) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cold := pairSystem(3)
			cold.Cache = c
			if _, err := cold.Build(); err != nil {
				t.Fatal(err)
			}
			desc := cold.CanonicalDesc()
			path := c.EntryPath(desc)
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("cold build left no cache entry: %v", err)
			}
			if err := mutate(path); err != nil {
				t.Fatal(err)
			}
			warm := pairSystem(3)
			warm.Cache = c
			g, err := warm.Build()
			if err != nil {
				t.Fatalf("corrupt cache must not fail the build: %v", err)
			}
			if signature(g) != want {
				t.Error("fallback graph differs from clean build")
			}
			// The rebuild repaired the entry.
			if snap, err := c.Load(desc); err != nil || snap == nil {
				t.Errorf("entry not repaired: (%v, %v)", snap, err)
			}
		})
	}

	corrupt("truncated", func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data[:len(data)/2], 0o644)
	})
	corrupt("bitFlipped", func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x01
		return os.WriteFile(path, data, 0o644)
	})
	corrupt("versionMismatch", func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[8], data[9] = 0xFF, 0xFF
		return os.WriteFile(path, data, 0o644)
	})
	corrupt("garbage", func(path string) error {
		return os.WriteFile(path, []byte("not a snapshot at all"), 0o644)
	})
	corrupt("empty", func(path string) error {
		return os.WriteFile(path, nil, 0o644)
	})
}

// TestResumeProducesByteIdenticalSnapshot is the acceptance criterion of the
// checkpoint/resume tentpole at the unit level: a budget-exhausted run
// resumed to completion writes a .snap file byte-identical to the one a
// never-interrupted run writes.
func TestResumeProducesByteIdenticalSnapshot(t *testing.T) {
	// One-shot reference run.
	refDir := t.TempDir()
	refCache, err := Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	ref := pairSystem(4)
	ref.Cache = refCache
	gRef, err := ref.Build()
	if err != nil {
		t.Fatal(err)
	}
	desc := ref.CanonicalDesc()
	refBytes, err := os.ReadFile(refCache.EntryPath(desc))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: exhaust the budget mid-exploration, checkpoint.
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	interrupted := pairSystem(4)
	interrupted.Cache = c
	_, err = interrupted.BuildWith(engine.Budget{MaxStates: 8}.Meter())
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
	if _, err := os.Stat(c.CheckpointPath(desc)); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Resumed run completes the graph.
	resumed := pairSystem(4)
	resumed.Cache = c
	gRes, err := resumed.Build()
	if err != nil {
		t.Fatal(err)
	}
	if signature(gRes) != signature(gRef) {
		t.Error("resumed graph differs from one-shot graph")
	}
	gotBytes, err := os.ReadFile(c.EntryPath(desc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, refBytes) {
		t.Error("resumed snapshot file is not byte-identical to the one-shot file")
	}
	if _, err := os.Stat(c.CheckpointPath(desc)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion: %v", err)
	}
}

func TestDigestStable(t *testing.T) {
	f1, s1 := Digest("abc")
	f2, s2 := Digest("abc")
	if f1 != f2 || s1 != s2 {
		t.Error("digest is not deterministic")
	}
	f3, s3 := Digest("abd")
	if f1 == f3 || s1 == s3 {
		t.Error("distinct descriptions should digest differently")
	}
	// Pin the FNV-1a test vector so the on-disk naming scheme cannot drift
	// silently (stale caches would look like misses).
	if f, _ := Digest(""); f != 14695981039346656037 {
		t.Errorf("FNV-1a offset basis drifted: %d", f)
	}
}

func TestFlagsValidate(t *testing.T) {
	cases := []struct {
		name  string
		flags Flags
		ok    bool
	}{
		{"disabled", Flags{}, true},
		{"dirOnly", Flags{Dir: "x"}, true},
	}
	for _, tc := range cases {
		err := tc.flags.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// Open honours the empty dir.
	if c, err := (&Flags{}).Open(); c != nil || err != nil {
		t.Errorf("disabled Open = (%v, %v)", c, err)
	}
	if c, err := (&Flags{Dir: filepath.Join(t.TempDir(), "c")}).Open(); c == nil || err != nil {
		t.Errorf("enabled Open = (%v, %v)", c, err)
	}
}
