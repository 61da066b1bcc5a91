package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"opentla/internal/cache"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureSnapshot is a tiny deterministic snapshot: one state, one self-loop.
// Its encoding is byte-stable, so the golden outputs (which include sizes)
// never drift.
func fixtureSnapshot() *ts.Snapshot {
	return &ts.Snapshot{
		Complete: true,
		States:   []*state.State{state.FromPairs("x", value.Int(0))},
		Inits:    []int{0},
		Offsets:  []int{0, 1},
		Targets:  []int32{0},
	}
}

// fixtureDir builds the scripted cache directory every golden scenario runs
// against: two good snapshots, one checkpoint, one corrupted entry, one
// orphaned temp file, one quarantined leftover, and one foreign file, all
// with pinned mtimes so gc's LRU order is deterministic.
func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	c, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := fixtureSnapshot()
	for _, desc := range []string{"alpha", "beta"} {
		if err := c.Store(desc, snap); err != nil {
			t.Fatal(err)
		}
	}
	ck := &ts.Snapshot{Level: 1, States: snap.States, Inits: snap.Inits, Offsets: []int{0}, Targets: nil}
	if err := c.StoreCheckpoint("gamma", ck); err != nil {
		t.Fatal(err)
	}
	// Corrupt beta in place: still the right name, no longer decodable.
	if err := os.WriteFile(c.EntryPath("beta"), []byte("GARBAGE!"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"snap-12345.tmp":       []byte("torn"),
		"old.snap.quarantined": []byte("old"),
		"NOTES.txt":            []byte("hello"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Pinned mtimes: alpha oldest, then gamma, then everything else.
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, ent := range ents { // ReadDir sorts by name: stable assignment
		mt := base.Add(time.Duration(i) * time.Minute)
		if ent.Name() == filepath.Base(c.EntryPath("alpha")) {
			mt = base.Add(-time.Hour) // oldest: first LRU eviction candidate
		}
		if err := os.Chtimes(filepath.Join(dir, ent.Name()), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runGolden runs one agcachectl invocation and compares combined output
// against testdata/<name>.golden, rewriting it under -update.
func runGolden(t *testing.T, name string, args []string, wantCode int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code != wantCode {
		t.Errorf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, wantCode, stdout.String(), stderr.String())
	}
	got := stdout.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestFsckGolden(t *testing.T) {
	dir := fixtureDir(t)
	runGolden(t, "fsck", []string{"fsck", "-cache-dir", dir}, 1)
	// A second pass sees the same findings: plain fsck never mutates.
	runGolden(t, "fsck", []string{"fsck", "-cache-dir", dir}, 1)
}

func TestFsckQuarantineGolden(t *testing.T) {
	dir := fixtureDir(t)
	runGolden(t, "fsck_quarantine", []string{"fsck", "-cache-dir", dir, "-quarantine"}, 1)
	// The corrupt entry is now out of the live set; remaining findings are
	// the junk files plus the new quarantined entry.
	runGolden(t, "fsck_after_quarantine", []string{"fsck", "-cache-dir", dir}, 1)
}

func TestGCGolden(t *testing.T) {
	dir := fixtureDir(t)
	// Junk-only pass: quarantined + tmp go, live entries stay.
	runGolden(t, "gc_junk", []string{"gc", "-cache-dir", dir}, 0)
	// Bounded pass: evict LRU live entries down to 150 bytes (the corrupt
	// beta entry is 8 bytes, the checkpoint ~60; alpha, oldest, goes first).
	runGolden(t, "gc_bounded", []string{"gc", "-cache-dir", dir, "-max-bytes", "150"}, 0)
	// Determinism: repeating the bounded pass removes nothing further.
	runGolden(t, "gc_bounded_again", []string{"gc", "-cache-dir", dir, "-max-bytes", "150"}, 0)
}

func TestStatGolden(t *testing.T) {
	runGolden(t, "stat", []string{"stat", "-cache-dir", fixtureDir(t)}, 0)
}

// TestStatJSONGolden pins the `stat -json` schema: the golden file is the
// published field contract, and the output must stay parseable JSON whose
// counts agree with the human-readable stat.
func TestStatJSONGolden(t *testing.T) {
	dir := fixtureDir(t)
	runGolden(t, "stat_json", []string{"stat", "-cache-dir", dir, "-json"}, 0)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"stat", "-cache-dir", dir, "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d\n%s", code, stderr.String())
	}
	var got map[string]int64
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("stat -json output is not JSON: %v\n%s", err, stdout.String())
	}
	for _, key := range []string{"snapshots", "checkpoints", "quarantined", "temp_files", "other_files", "total_bytes"} {
		if _, ok := got[key]; !ok {
			t.Errorf("stat -json missing schema field %q: %v", key, got)
		}
	}
}

func TestFsckCleanCache(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("only", fixtureSnapshot()); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fsck", "-cache-dir", dir}, &stdout, &stderr); code != 0 {
		t.Errorf("clean fsck exit = %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if want := "fsck: 1 entries scanned, clean\n"; stdout.String() != want {
		t.Errorf("stdout = %q, want %q", stdout.String(), want)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown command", []string{"prune"}, 2},
		{"fsck no dir", []string{"fsck"}, 2},
		{"gc negative bound", []string{"gc", "-cache-dir", "x", "-max-bytes", "-5"}, 2},
		{"stat missing dir", []string{"stat", "-cache-dir", filepath.Join(os.TempDir(), "agcachectl-no-such-dir")}, 2},
		{"help", []string{"help"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Errorf("exit = %d, want %d\nstderr: %s", code, tc.want, stderr.String())
			}
		})
	}
}

// TestStatOnFileNotDir: pointing the tool at a file must fail cleanly.
func TestStatOnFileNotDir(t *testing.T) {
	f := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"stat", "-cache-dir", f}, &stdout, &stderr); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestFsckDoesNotSweepOrphans: the admin tool must report, not repair,
// orphaned temp files (only the checkers' cache.Open sweeps them).
func TestFsckDoesNotSweepOrphans(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "snap-1.tmp")
	if err := os.WriteFile(orphan, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fsck", "-cache-dir", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, stderr.String())
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Errorf("fsck removed the orphan it should only report: %v", err)
	}
}

// TestStaleFixture runs over a copy of a cache a codec-version-1 build
// filled: its entries are stale, not damaged. fsck lists them and exits 0
// with no BAD line, -quarantine leaves them in place, and stat counts them
// as snapshots, judging by name alone.
func TestStaleFixture(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "cache", "testdata", "v1-fig9-n1-k2")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{{"fsck", "-cache-dir", dir, "-quarantine"}, {"fsck", "-cache-dir", dir}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Errorf("%v: exit %d, want 0\n%s%s", args, code, stdout.String(), stderr.String())
		}
		out := stdout.String()
		if strings.Contains(out, "BAD") || strings.Count(out, "STALE ") != 3 ||
			!strings.HasSuffix(out, "fsck: 3 entries scanned, 3 stale, clean\n") {
			t.Errorf("%v: want 3 STALE lines, no BAD line, a clean summary:\n%s", args, out)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"stat", "-cache-dir", dir, "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("stat exit %d\n%s", code, stderr.String())
	}
	var st cache.Stats
	if err := json.Unmarshal(stdout.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 3 || st.Quarantined != 0 || st.Other != 0 {
		t.Errorf("stat = %+v, want 3 snapshots and nothing quarantined", st)
	}
}
