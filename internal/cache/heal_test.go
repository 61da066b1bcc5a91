package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"opentla/internal/iofs"
	"opentla/internal/ts"
)

// events is a notify sink capturing (kind, message) pairs.
type events struct {
	kinds []string
	msgs  []string
}

func (e *events) note(kind, msg string) {
	e.kinds = append(e.kinds, kind)
	e.msgs = append(e.msgs, msg)
}

func (e *events) count(kind string) int {
	n := 0
	for _, k := range e.kinds {
		if k == kind {
			n++
		}
	}
	return n
}

// openQuiet opens a cache over dir with deterministic time and no sleeping.
func openQuiet(t *testing.T, dir string, opts Options) *Cache {
	t.Helper()
	if opts.Sleep == nil {
		opts.Sleep = func(time.Duration) {}
	}
	c, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOpenSweepsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	// Plant orphans an interrupted writer would leave, plus a live entry and
	// a non-temp file that must both survive.
	for _, name := range []string{"snap-123.tmp", "snap-old.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.snap"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	c := openQuiet(t, dir, Options{})
	var ev events
	c.SetNotify(ev.note) // flushes the Open-time events

	if got := ev.count("cache-sweep"); got != 2 {
		t.Errorf("cache-sweep events = %d, want 2 (%v)", got, ev.msgs)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "keep.snap" {
		t.Errorf("after sweep dir holds %v, want only keep.snap", ents)
	}
}

func TestLoadQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	c := openQuiet(t, dir, Options{})
	var ev events
	c.SetNotify(ev.note)

	const desc = "quarantine me"
	if err := c.Store(desc, buildSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	path := c.EntryPath(desc)
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Load(desc)
	if snap != nil || err == nil {
		t.Fatalf("corrupt Load = (%v, %v), want (nil, error)", snap, err)
	}
	if got := ev.count("cache-quarantine"); got != 1 {
		t.Fatalf("cache-quarantine events = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry still at its live path")
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Errorf("quarantined copy missing: %v", err)
	}
	// The very next load is a clean miss: the entry can never block a cold
	// build twice.
	if snap, err := c.Load(desc); snap != nil || err != nil {
		t.Errorf("post-quarantine Load = (%v, %v), want (nil, nil)", snap, err)
	}
}

// TestLoadOtherVersionIsMiss rewrites the version field of a stored entry
// and of a stored checkpoint: each load is a clean miss that removes the
// file, with no quarantine and no event, while any other header damage is
// still quarantined.
func TestLoadOtherVersionIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := openQuiet(t, dir, Options{})
	var ev events
	c.SetNotify(ev.note)

	const desc = "old format"
	snap := buildSnapshot(t)
	ck := &ts.Snapshot{Level: 1, States: snap.States[:1], Inits: []int{0}, Offsets: []int{0}}
	for _, tc := range []struct {
		path  string
		store func() error
		load  func() (*ts.Snapshot, error)
	}{
		{c.EntryPath(desc), func() error { return c.Store(desc, snap) }, func() (*ts.Snapshot, error) { return c.Load(desc) }},
		{c.CheckpointPath(desc), func() error { return c.StoreCheckpoint(desc, ck) }, func() (*ts.Snapshot, error) { return c.LoadCheckpoint(desc) }},
	} {
		if err := tc.store(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		data[8], data[9] = 1, 0 // codec version 1
		if err := os.WriteFile(tc.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := tc.load(); got != nil || err != nil {
			t.Errorf("%s: load = (%v, %v), want a miss (nil, nil)", filepath.Base(tc.path), got, err)
		}
		if _, err := os.Stat(tc.path); !os.IsNotExist(err) {
			t.Errorf("%s: old-version file still present: %v", filepath.Base(tc.path), err)
		}
	}
	if len(ev.kinds) != 0 {
		t.Errorf("old-version loads noted %v, want nothing", ev.kinds)
	}
	if _, err := os.Stat(c.EntryPath(desc) + ".quarantined"); !os.IsNotExist(err) {
		t.Errorf("old-version entry quarantined: %v", err)
	}

	// A bad magic with the same length is damage, not another format.
	if err := c.Store(desc, snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.EntryPath(desc))
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if err := os.WriteFile(c.EntryPath(desc), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Load(desc); got != nil || err == nil {
		t.Errorf("bad-magic load = (%v, %v), want an error", got, err)
	}
	if ev.count("cache-quarantine") != 1 {
		t.Errorf("bad-magic entry: %d quarantine events, want 1", ev.count("cache-quarantine"))
	}
}

func TestStoreRetriesTransientFaults(t *testing.T) {
	dir := t.TempDir()
	// Ops 1 and 2 fail transiently: attempt 1 dies at CreateTemp, attempt 2
	// dies at its CreateTemp too, attempt 3 runs clean. Default retries = 2.
	fs := iofs.NewFaulty(iofs.OS{}, map[int]iofs.FaultMode{
		1: iofs.FaultTransient,
		2: iofs.FaultTransient,
	})
	var slept []time.Duration
	c := openQuiet(t, dir, Options{
		FS:      fs,
		Retries: -1,
		Backoff: time.Millisecond,
		Sleep:   func(d time.Duration) { slept = append(slept, d) },
	})
	var ev events
	c.SetNotify(ev.note)

	const desc = "retry me"
	if err := c.Store(desc, buildSnapshot(t)); err != nil {
		t.Fatalf("transient faults within the retry budget must succeed: %v", err)
	}
	if got := ev.count("cache-retry"); got != 2 {
		t.Errorf("cache-retry events = %d, want 2", got)
	}
	// Exponential backoff: 1ms then 2ms.
	if want := []time.Duration{time.Millisecond, 2 * time.Millisecond}; !reflect.DeepEqual(slept, want) {
		t.Errorf("backoff = %v, want %v", slept, want)
	}
	if snap, err := c.Load(desc); snap == nil || err != nil {
		t.Errorf("entry unreadable after retried store: (%v, %v)", snap, err)
	}
}

func TestStoreGivesUpOnPermanentError(t *testing.T) {
	dir := t.TempDir()
	fs := iofs.NewFaulty(iofs.OS{}, map[int]iofs.FaultMode{1: iofs.FaultNoSpace})
	c := openQuiet(t, dir, Options{FS: fs, Retries: -1})
	var ev events
	c.SetNotify(ev.note)

	err := c.Store("doomed", buildSnapshot(t))
	if err == nil {
		t.Fatal("ENOSPC store must fail")
	}
	if got := ev.count("cache-retry"); got != 0 {
		t.Errorf("permanent errors must not be retried, saw %d retries", got)
	}
	// Exactly one op consumed: no retry attempts followed the failure.
	if fs.Ops() != 1 {
		t.Errorf("ops = %d, want 1", fs.Ops())
	}
}

func TestStoreExhaustsRetryBudget(t *testing.T) {
	dir := t.TempDir()
	// Every CreateTemp fails transiently; with Retries=2 the third failure
	// is final.
	fs := iofs.NewFaulty(iofs.OS{}, map[int]iofs.FaultMode{
		1: iofs.FaultTransient, 2: iofs.FaultTransient, 3: iofs.FaultTransient,
	})
	c := openQuiet(t, dir, Options{FS: fs, Retries: -1})
	err := c.Store("doomed", buildSnapshot(t))
	if err == nil || !iofs.IsTransient(err) {
		t.Fatalf("exhausted retries must surface the transient error, got %v", err)
	}
	// The failed attempts must not leave temp litter behind.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 0 {
		t.Errorf("failed store left files: %v", ents)
	}
}

func TestShortWriteCleansUpAndRetries(t *testing.T) {
	dir := t.TempDir()
	// Op 2 is the first attempt's Write: half the data lands, then a
	// transient error. The retry (ops 3..7) must succeed and the torn temp
	// file must be gone.
	fs := iofs.NewFaulty(iofs.OS{}, map[int]iofs.FaultMode{2: iofs.FaultShortWrite})
	c := openQuiet(t, dir, Options{FS: fs, Retries: -1})
	const desc = "torn"
	if err := c.Store(desc, buildSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if snap, err := c.Load(desc); snap == nil || err != nil {
		t.Fatalf("Load after short-write retry = (%v, %v)", snap, err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("dir holds %v, want only the final entry", ents)
	}
}

func TestGCEnforcesBoundLRU(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	c := openQuiet(t, dir, Options{Now: func() time.Time { return base }})

	snap := buildSnapshot(t)
	descs := []string{"sys A", "sys B", "sys C", "sys D"}
	var entrySize int64
	for i, d := range descs {
		if err := c.Store(d, snap); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes establish the LRU order A < B < C < D.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c.EntryPath(d), mt, mt); err != nil {
			t.Fatal(err)
		}
		if entrySize == 0 {
			info, err := os.Stat(c.EntryPath(d))
			if err != nil {
				t.Fatal(err)
			}
			entrySize = info.Size()
		}
	}
	// Touch A by loading it; its mtime (Now = base+10min) makes it the most
	// recently used, so B is now the eviction candidate.
	c.now = func() time.Time { return base.Add(10 * time.Minute) }
	if snap, err := c.Load("sys A"); snap == nil || err != nil {
		t.Fatal(err)
	}

	var ev events
	c.SetNotify(ev.note)
	// Bound to three entries: exactly one eviction.
	res, err := c.GC(3 * entrySize)
	if err != nil {
		t.Fatal(err)
	}
	wantGone := filepath.Base(c.EntryPath("sys B"))
	if len(res.Removed) != 1 || res.Removed[0] != wantGone {
		t.Fatalf("Removed = %v, want [%s]", res.Removed, wantGone)
	}
	if res.KeptBytes != 3*entrySize || res.FreedBytes != entrySize {
		t.Errorf("Kept=%d Freed=%d, want %d and %d", res.KeptBytes, res.FreedBytes, 3*entrySize, entrySize)
	}
	if got := ev.count("cache-gc"); got != 1 {
		t.Errorf("cache-gc events = %d, want 1", got)
	}
	// The touched entry survived.
	if snap, err := c.Load("sys A"); snap == nil || err != nil {
		t.Errorf("LRU evicted the recently used entry: (%v, %v)", snap, err)
	}
	// Determinism: a second pass at the same bound removes nothing.
	res2, err := c.GC(3 * entrySize)
	if err != nil || len(res2.Removed) != 0 {
		t.Errorf("second GC = (%v, %v), want no-op", res2.Removed, err)
	}
}

func TestGCRemovesJunkRegardlessOfBound(t *testing.T) {
	dir := t.TempDir()
	c := openQuiet(t, dir, Options{})
	if err := c.Store("live", buildSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dead.snap.quarantined", "snap-99.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.GC(0) // unbounded: junk only
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 2 {
		t.Fatalf("Removed = %v, want the two junk files", res.Removed)
	}
	if snap, err := c.Load("live"); snap == nil || err != nil {
		t.Errorf("junk-only GC touched the live entry: (%v, %v)", snap, err)
	}
}

func TestAutoGCAfterStore(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tick := 0
	// MaxBytes sized below two entries: every store evicts down to one.
	snap := buildSnapshot(t)
	_, sum := Digest("probe")
	probe, err := Encode(snap, sum)
	if err != nil {
		t.Fatal(err)
	}
	c := openQuiet(t, dir, Options{
		MaxBytes: int64(len(probe)) + 1,
		Now: func() time.Time {
			tick++
			return base.Add(time.Duration(tick) * time.Second)
		},
	})
	if err := c.Store("first", snap); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("second", snap); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Load("second"); got == nil || err != nil {
		t.Errorf("newest entry evicted: (%v, %v)", got, err)
	}
	if got, _ := c.Load("first"); got != nil {
		t.Error("auto-GC kept the cache over its bound")
	}
}

func TestFsckCatalog(t *testing.T) {
	dir := t.TempDir()
	c := openQuiet(t, dir, Options{})
	if err := c.Store("good", buildSnapshot(t)); err != nil {
		t.Fatal(err)
	}

	// A clean cache has zero findings.
	res, err := c.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 1 || len(res.Findings) != 0 {
		t.Fatalf("clean fsck = %+v, want 1 scanned, 0 findings", res)
	}

	goodData, err := os.ReadFile(c.EntryPath("good"))
	if err != nil {
		t.Fatal(err)
	}
	// Plant every catalog entry. Filenames follow the content-addressed
	// shape where the check under test needs them to.
	plant := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	truncated := goodData[:len(goodData)/2]
	flipped := append([]byte(nil), goodData...)
	flipped[len(flipped)/2] ^= 0x01
	badVersion := append([]byte(nil), goodData...)
	badVersion[8], badVersion[9] = 0xFF, 0xFF

	plant("0000000000000001-0000000000000001.snap", truncated)
	plant("0000000000000002-0000000000000002.snap", flipped)
	plant("0000000000000003-0000000000000003.ckpt", badVersion)
	plant("0000000000000004-0000000000000004.snap", []byte("not a snapshot"))
	plant("badname.snap", goodData)      // malformed stem
	plant("snap-777.tmp", []byte("x"))   // orphan
	plant("old.snap.quarantined", nil)   // quarantined
	plant("README.txt", []byte("hello")) // unrecognized
	// goodData stored under the wrong key: embedded digest mismatch.
	plant("00000000000000aa-00000000000000aa.snap", goodData)

	res, err = c.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	wantProblems := map[string]string{
		"0000000000000001-0000000000000001.snap": "checksum",
		"0000000000000002-0000000000000002.snap": "checksum",
		"0000000000000003-0000000000000003.ckpt": "version",
		"0000000000000004-0000000000000004.snap": "truncated",
		"badname.snap":                           "content-addressed",
		"snap-777.tmp":                           "orphaned temp",
		"old.snap.quarantined":                   "quarantined",
		"README.txt":                             "unrecognized",
		"00000000000000aa-00000000000000aa.snap": "does not match the filename",
	}
	if len(res.Findings) != len(wantProblems) {
		t.Fatalf("findings = %d, want %d: %+v", len(res.Findings), len(wantProblems), res.Findings)
	}
	for _, f := range res.Findings {
		want, ok := wantProblems[f.Name]
		if !ok {
			t.Errorf("unexpected finding for %s: %s", f.Name, f.Problem)
			continue
		}
		if !strings.Contains(f.Problem, want) {
			t.Errorf("%s: problem %q does not mention %q", f.Name, f.Problem, want)
		}
	}

	// With quarantine, the corrupt live entries are moved aside; the good
	// entry survives and a re-run flags only the leftovers.
	if _, err := c.Fsck(true); err != nil {
		t.Fatal(err)
	}
	res, err = c.Fsck(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 1 {
		t.Errorf("after quarantine, %d live entries remain, want only the good one", res.Scanned)
	}
	for _, f := range res.Findings {
		if strings.HasSuffix(f.Name, ".snap") || strings.HasSuffix(f.Name, ".ckpt") {
			t.Errorf("live finding survived quarantine: %+v", f)
		}
	}
	if snap, err := c.Load("good"); snap == nil || err != nil {
		t.Errorf("good entry damaged by fsck: (%v, %v)", snap, err)
	}
}

func TestStatCounts(t *testing.T) {
	dir := t.TempDir()
	c := openQuiet(t, dir, Options{})
	snap := buildSnapshot(t)
	if err := c.Store("a", snap); err != nil {
		t.Fatal(err)
	}
	ck := ts_checkpoint(snap)
	if err := c.StoreCheckpoint("b", ck); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"x.snap.quarantined": []byte("q"),
		"snap-1.tmp":         []byte("t"),
		"notes.txt":          []byte("n"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Snapshots: 1, Checkpoints: 1, Quarantined: 1, TempFiles: 1, Other: 1, TotalBytes: st.TotalBytes}
	if st != want {
		t.Errorf("Stat = %+v, want %+v", st, want)
	}
	if st.TotalBytes <= 3 {
		t.Errorf("TotalBytes = %d, too small", st.TotalBytes)
	}
}

// ts_checkpoint fakes a checkpoint from a complete snapshot.
func ts_checkpoint(snap *ts.Snapshot) *ts.Snapshot {
	return &ts.Snapshot{
		Level:   1,
		States:  snap.States,
		Inits:   snap.Inits,
		Offsets: snap.Offsets[:2],
		Targets: snap.Targets[:snap.Offsets[1]],
	}
}

// TestDirectoryCorruptionCatalog exercises directory-level damage: each case
// must degrade to a working cold build, never an error or a wrong graph.
func TestDirectoryCorruptionCatalog(t *testing.T) {
	build := func(t *testing.T, c *Cache) {
		t.Helper()
		sys := pairSystem(3)
		sys.Cache = c
		g, err := sys.Build()
		if err != nil {
			t.Fatalf("build with damaged cache dir failed: %v", err)
		}
		clean, err := pairSystem(3).Build()
		if err != nil {
			t.Fatal(err)
		}
		if signature(g) != signature(clean) {
			t.Error("damaged-cache build produced a different graph")
		}
	}

	t.Run("missingDirIsCreated", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "does", "not", "exist")
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		build(t, c)
		if _, err := os.Stat(dir); err != nil {
			t.Errorf("cache dir not created: %v", err)
		}
	})

	t.Run("readOnlyDir", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("permission bits do not bind root")
		}
		dir := t.TempDir()
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(dir, 0o555); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Chmod(dir, 0o755) })
		// Stores fail (permanently — no retry storm) but the build succeeds.
		if err := c.Store("x", buildSnapshot(t)); err == nil {
			t.Error("store into a read-only dir must fail")
		}
		build(t, c)
	})

	t.Run("unreadableEntry", func(t *testing.T) {
		if os.Geteuid() == 0 {
			t.Skip("permission bits do not bind root")
		}
		dir := t.TempDir()
		c, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sys := pairSystem(3)
		sys.Cache = c
		if _, err := sys.Build(); err != nil {
			t.Fatal(err)
		}
		desc := sys.CanonicalDesc()
		if err := os.Chmod(c.EntryPath(desc), 0o000); err != nil {
			t.Fatal(err)
		}
		build(t, c) // warm run degrades to cold
	})
}

func TestFlagsMaxBytesValidate(t *testing.T) {
	cases := []struct {
		name  string
		flags Flags
		ok    bool
	}{
		{"boundedWithDir", Flags{Dir: "x", MaxBytes: 1024}, true},
		{"negativeBound", Flags{Dir: "x", MaxBytes: -1}, false},
		{"boundWithoutDir", Flags{MaxBytes: 1024}, false},
	}
	for _, tc := range cases {
		err := tc.flags.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCrashAtEnvOpensCrashFS(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(CrashAtEnv, "not-a-number")
	if _, err := (&Flags{Dir: dir}).Open(); err == nil {
		t.Error("garbage crash-at value must be rejected")
	}
	t.Setenv(CrashAtEnv, "0")
	if c, err := (&Flags{Dir: dir}).Open(); c == nil || err != nil {
		t.Errorf("crash-at 0 must mean no crash: (%v, %v)", c, err)
	}
	// A positive value installs the crash FS; prove it by checking the store
	// path dies at op 1 — but via the error we can't observe os.Exit, so just
	// check Open succeeds and the FS is a *iofs.Crash.
	t.Setenv(CrashAtEnv, "3")
	c, err := (&Flags{Dir: dir}).Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.fs.(*iofs.Crash); !ok {
		t.Errorf("fs is %T, want *iofs.Crash", c.fs)
	}
}

func TestSeededFaultPlanNeverCorruptsVerdict(t *testing.T) {
	// Fuzz-lite: several seeded fault plans over warm and cold builds. The
	// invariant is the graph, not the cache: any injected fault may cost the
	// entry, never the build.
	clean, err := pairSystem(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	want := signature(clean)
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			fs := iofs.NewFaulty(iofs.OS{}, iofs.SeededPlan(seed, 64, 0.25))
			c := openQuiet(t, dir, Options{FS: fs, Retries: -1})
			c.SetNotify(func(string, string) {})
			for run := 0; run < 3; run++ {
				sys := pairSystem(3)
				sys.Cache = c
				g, err := sys.Build()
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if signature(g) != want {
					t.Fatalf("run %d: fault plan changed the graph", run)
				}
			}
		})
	}
}
