package cache

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"

	"opentla/internal/engine"
	"opentla/internal/iofs"
)

// The in-process chaos harness: plant a crash at every mutating filesystem
// operation of a checkpoint-then-resume workload, restart on the survivors'
// disk state, and require the recovered run to be indistinguishable from a
// run that never crashed. Snapshot encoding is deterministic, so the
// invariant is byte-level: the recovered .snap file must equal the one-shot
// reference file exactly.
//
// scripts/chaos.sh is the process-level twin of this test (real os.Exit via
// OPENTLA_CACHE_CRASH_AT); both crash through iofs.Faulty, whose one op
// counter numbers the operations, so a crash point here names the same
// operation there.

// chaosRef is the one-shot reference every crash point is compared against.
type chaosRef struct {
	desc string
	sig  string
	raw  []byte
}

func chaosReference(t *testing.T, top int64) chaosRef {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sys := pairSystem(top)
	sys.Cache = c
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	desc := sys.CanonicalDesc()
	raw, err := os.ReadFile(c.EntryPath(desc))
	if err != nil {
		t.Fatal(err)
	}
	return chaosRef{desc: desc, sig: signature(g), raw: raw}
}

// runCrashStages drives the two-stage workload every sweep iterates: a
// budget-interrupted build that saves a checkpoint, then a resumed build to
// completion. Cache failures are nonfatal by design, so both stages run to
// their own end even when the planted crash has frozen the filesystem; the
// crashed FS state, not the stages' return values, is what the sweep
// inspects afterwards.
func runCrashStages(t *testing.T, c *Cache, top int64, f *iofs.Faulty) {
	t.Helper()
	a := pairSystem(top)
	a.Cache = c
	_, err := a.BuildWith(engine.Budget{MaxStates: 8}.Meter())
	var be *engine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("stage A: want budget exhaustion, got %v", err)
	}
	if f.Crashed() {
		return // the simulated process died mid-checkpoint
	}
	b := pairSystem(top)
	b.Cache = c
	if _, err := b.Build(); err != nil && !f.Crashed() {
		t.Fatalf("stage B: %v", err)
	}
}

// recoverAndCheck restarts on the crashed directory — a fresh cache over the
// real filesystem, exactly what a plain rerun does — and asserts the
// recovery invariants: the build completes, the graph matches the one-shot
// reference, the snapshot file is byte-identical, and (when wantClean) fsck
// finds nothing, i.e. the crash left no file the recovery had to repair.
func recoverAndCheck(t *testing.T, dir string, top int64, ref chaosRef, wantClean bool) {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	sys := pairSystem(top)
	sys.Cache = c
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("recovery build: %v", err)
	}
	if signature(g) != ref.sig {
		t.Error("recovered graph differs from the one-shot reference")
	}
	raw, err := os.ReadFile(c.EntryPath(ref.desc))
	if err != nil {
		t.Fatalf("recovered snapshot unreadable: %v", err)
	}
	if !bytes.Equal(raw, ref.raw) {
		t.Error("recovered snapshot file is not byte-identical to the one-shot file")
	}
	if wantClean {
		res, err := c.Fsck(false)
		if err != nil {
			t.Fatalf("fsck after recovery: %v", err)
		}
		for _, f := range res.Findings {
			t.Errorf("fsck after recovery: %s: %s", f.Name, f.Problem)
		}
	}
}

// TestCrashAtEveryWriteOp is the tentpole acceptance test: kill the cache at
// mutating operation 1, 2, 3, ... of the checkpoint-then-resume workload and
// require every restart to converge to the one-shot result. The sweep is
// self-sizing — it stops at the first index past the workload's last write —
// so adding write operations to the cache automatically widens it.
func TestCrashAtEveryWriteOp(t *testing.T) {
	const top = 4
	ref := chaosReference(t, top)
	for at := 1; ; at++ {
		if at > 64 {
			t.Fatal("crash sweep did not terminate: the workload never ran out of ops")
		}
		dir := t.TempDir()
		f := iofs.NewFaulty(iofs.OS{}, map[int]iofs.FaultMode{at: iofs.FaultCrash})
		c, err := OpenWith(dir, Options{FS: f})
		if err != nil {
			t.Fatal(err)
		}
		runCrashStages(t, c, top, f)
		if !f.Crashed() {
			// This index is past the workload's final write: the run completed
			// untouched and doubles as the sweep's own reference check.
			recoverAndCheck(t, dir, top, ref, true)
			t.Logf("swept %d crash points (workload performs %d mutating ops)", at-1, f.Ops())
			return
		}
		recoverAndCheck(t, dir, top, ref, true)
	}
}

// TestSyncDropThenCrashTearsFinalEntry covers the one corruption atomic
// rename cannot prevent: an fsync that lies (reports success without
// durability) followed by a crash tears the entry at its final path. The
// self-healing load must quarantine the torn file and degrade to a cold
// build with the identical result.
func TestSyncDropThenCrashTearsFinalEntry(t *testing.T) {
	const top = 4
	ref := chaosReference(t, top)
	dir := t.TempDir()
	// Op 3 is the checkpoint write's Sync; op 6 (the resumed stage's first
	// mutating op) crashes after the checkpoint was renamed into place, so
	// the never-synced data is torn away from the final path.
	f := iofs.NewFaulty(iofs.OS{}, map[int]iofs.FaultMode{
		3: iofs.FaultSyncDrop,
		6: iofs.FaultCrash,
	})
	c, err := OpenWith(dir, Options{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	runCrashStages(t, c, top, f)
	if !f.Crashed() {
		t.Fatal("planted crash never fired")
	}
	ckpt := c.CheckpointPath(ref.desc)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("checkpoint should exist torn at its final path: %v", err)
	}
	if len(data) != 0 {
		t.Fatalf("checkpoint kept %d bytes across a crash whose sync was dropped", len(data))
	}
	// Quarantine (not fsck-cleanliness) is the expected healing here.
	recoverAndCheck(t, dir, top, ref, false)
	if _, err := os.Stat(ckpt + ".quarantined"); err != nil {
		t.Errorf("torn checkpoint was not quarantined: %v", err)
	}
}

// TestChaosFullSweep is the CI chaos job's long variant, gated behind
// OPENTLA_CHAOS_FULL: the crash sweep repeated under seeded background fault
// plans (transient errors, short writes, ENOSPC, dropped syncs), so every
// crash point is also exercised with the retry and degrade paths active.
// Seeds are fixed and logged so a failure reproduces exactly.
func TestChaosFullSweep(t *testing.T) {
	if os.Getenv("OPENTLA_CHAOS_FULL") == "" {
		t.Skip("set OPENTLA_CHAOS_FULL=1 to run the full seeded chaos sweep (CI chaos job)")
	}
	const top = 4
	ref := chaosReference(t, top)
	for seed := int64(1); seed <= 4; seed++ {
		base := iofs.SeededPlan(seed, 48, 0.15)
		for at := 1; ; at++ {
			if at > 128 {
				t.Fatalf("seed %d: crash sweep did not terminate", seed)
			}
			plan := make(map[int]iofs.FaultMode, len(base)+1)
			for k, v := range base {
				plan[k] = v
			}
			plan[at] = iofs.FaultCrash
			dir := t.TempDir()
			f := iofs.NewFaulty(iofs.OS{}, plan)
			c, err := OpenWith(dir, Options{FS: f, Sleep: func(time.Duration) {}})
			if err != nil {
				t.Fatal(err)
			}
			runCrashStages(t, c, top, f)
			crashed := f.Crashed()
			// Background faults may legitimately tear renamed files (dropped
			// syncs) — quarantine is then correct healing, so fsck-cleanliness
			// is not an invariant here; byte-identity still is.
			recoverAndCheck(t, dir, top, ref, false)
			if !crashed {
				t.Logf("seed %d: swept %d crash points under %d planned background faults",
					seed, at-1, len(base))
				break
			}
		}
	}
}

// TestCrashOpCount pins the op numbering the crash sweeps share: one store
// consumes six mutating operations, so a crash point of the in-process
// sweep and of scripts/chaos.sh (both iofs.Faulty) keeps naming the same
// operation of a store.
func TestCrashOpCount(t *testing.T) {
	f := iofs.NewFaulty(iofs.OS{}, nil)
	c, err := OpenWith(t.TempDir(), Options{FS: f})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Store("contract", buildSnapshot(t)); err != nil {
		t.Fatal(err)
	}
	if want := 6; f.Ops() != want {
		t.Errorf("a single store consumed %d ops, want %d (temp, write, sync, close, rename, stale-checkpoint remove)", f.Ops(), want)
	}
}
