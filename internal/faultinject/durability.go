package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"os"

	"opentla/internal/cache"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/iofs"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// KindDurability marks mutations of the cache's durability machinery rather
// than of a specification: the mutant is a bug in how graphs are persisted,
// and the detector is the chaos harness instead of a proof obligation.
const KindDurability Kind = "durability"

// DurabilityMutation plants one deliberate hole in the graph cache's
// durability machinery (see cache.Mutation). Like the spec mutants, each
// must be rejected — here by the chaos harness's recovery invariants — and a
// survivor is evidence of a hole in the harness, not a tolerable weakness.
type DurabilityMutation struct {
	Name        string
	Description string
	Mut         cache.Mutation
}

// DurabilityResult records whether and how one durability mutant was caught.
type DurabilityResult struct {
	Mutation string
	Detected bool
	// Detector names the invariant that rejected the mutant.
	Detector string
	// Detail describes the observed corruption.
	Detail string
}

// DurabilityCatalog returns the standard durability mutant set. Every
// mutant must be detected — see the package test, which asserts zero
// survivors.
func DurabilityCatalog() []DurabilityMutation {
	return []DurabilityMutation{
		{
			Name: "drop-checksum-verification",
			Description: "loads skip the trailing SHA-256 check: a torn or " +
				"bit-flipped entry decodes as a silently wrong graph",
			Mut: cache.MutDropChecksum,
		},
		{
			Name: "skip-atomic-rename",
			Description: "entries are written at their final path instead of " +
				"via temp file + rename: a crash mid-write publishes a torn entry",
			Mut: cache.MutSkipAtomicRename,
		},
		{
			Name: "truncate-checkpoint",
			Description: "only half of every checkpoint reaches disk: the " +
				"checkpoint-saved notice promises a resume that cannot happen",
			Mut: cache.MutTruncateCheckpoint,
		},
	}
}

// durabilityDetector is one invariant of the chaos harness. It runs a
// workload against a cache carrying the mutation and returns a non-empty
// violation description if the invariant broke (the mutant is detected), or
// "" if the mutated cache behaved indistinguishably from a correct one.
type durabilityDetector struct {
	name string
	fn   func(mut cache.Mutation) (string, error)
}

func durabilityDetectors() []durabilityDetector {
	return []durabilityDetector{
		{"crash-sweep", detectCrashSweep},
		{"checkpoint-loadable", detectCheckpointLoadable},
		{"corrupt-entry-rejected", detectCorruptEntryRejected},
	}
}

// RunDurability runs every mutation through the chaos harness's detectors in
// catalog order. It first verifies that the unmutated cache satisfies every
// invariant — detection of faults is meaningless against a baseline that
// already fails.
func RunDurability(muts []DurabilityMutation) ([]DurabilityResult, error) {
	dets := durabilityDetectors()
	for _, d := range dets {
		v, err := d.fn(cache.MutNone)
		if err != nil {
			return nil, fmt.Errorf("durability baseline %s: %w", d.name, err)
		}
		if v != "" {
			return nil, fmt.Errorf("durability baseline violates %s; mutation results would be meaningless: %s", d.name, v)
		}
	}
	results := make([]DurabilityResult, 0, len(muts))
	for _, mu := range muts {
		res := DurabilityResult{Mutation: mu.Name}
		for _, d := range dets {
			v, err := d.fn(mu.Mut)
			if err != nil {
				return nil, fmt.Errorf("mutant %s: detector %s: %w", mu.Name, d.name, err)
			}
			if v != "" {
				res.Detected, res.Detector, res.Detail = true, d.name, v
				break
			}
		}
		results = append(results, res)
	}
	return results, nil
}

func isBudgetError(err error) bool {
	var be *engine.BudgetError
	return errors.As(err, &be)
}

// durabilityWorkload is the system the detectors build: a pair of bounded
// counters, small enough to sweep in milliseconds, wide enough that a
// budget-interrupted build leaves a checkpoint with real structure.
func durabilityWorkload() *ts.System {
	const top = 4
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
		Name:       "durability",
		Components: []*spec.Component{mk("ca", "a"), mk("cb", "b")},
		Domains: map[string][]value.Value{
			"a": value.Ints(0, top),
			"b": value.Ints(0, top),
		},
	}
}

// durabilityReference builds the one-shot reference: the canonical snapshot
// bytes a correct cache must converge to from any crash point.
func durabilityReference() (desc string, raw []byte, err error) {
	dir, err := os.MkdirTemp("", "durability-ref-*")
	if err != nil {
		return "", nil, err
	}
	defer os.RemoveAll(dir)
	c, err := cache.Open(dir)
	if err != nil {
		return "", nil, err
	}
	sys := durabilityWorkload()
	sys.Cache = c
	if _, err := sys.Build(); err != nil {
		return "", nil, err
	}
	desc = sys.CanonicalDesc()
	raw, err = os.ReadFile(c.EntryPath(desc))
	return desc, raw, err
}

// detectCrashSweep is the harness's main invariant: crash the mutated cache
// at every mutating filesystem operation of a checkpoint-then-resume
// workload, restart (still mutated — the bug ships with the software), and
// require the recovery to reproduce the one-shot snapshot bytes with a clean
// fsck. Fsck always verifies checksums regardless of the mutation, so it is
// the independent auditor here.
func detectCrashSweep(mut cache.Mutation) (string, error) {
	desc, ref, err := durabilityReference()
	if err != nil {
		return "", err
	}
	for at := 1; at <= 64; at++ {
		dir, err := os.MkdirTemp("", "durability-crash-*")
		if err != nil {
			return "", err
		}
		v, crashed, err := crashPoint(dir, mut, at, desc, ref)
		os.RemoveAll(dir)
		if err != nil || v != "" {
			return v, err
		}
		if !crashed {
			return "", nil // past the workload's last write: sweep complete
		}
	}
	return "", errors.New("crash sweep did not terminate")
}

// crashPoint runs one crash-at-op-at iteration: the two-stage workload on a
// Faulty FS, then recovery on the real one. It returns the first violated
// invariant, or "" and whether the planted crash fired.
func crashPoint(dir string, mut cache.Mutation, at int, desc string, ref []byte) (string, bool, error) {
	f := iofs.NewFaulty(iofs.OS{}, map[int]iofs.FaultMode{at: iofs.FaultCrash})
	c, err := cache.OpenWith(dir, cache.Options{FS: f})
	if err != nil {
		return "", false, err
	}
	c.Mutate(mut)
	a := durabilityWorkload()
	a.Cache = c
	if _, err := a.BuildWith(engine.Budget{MaxStates: 8}.Meter()); !isBudgetError(err) {
		return "", false, fmt.Errorf("stage A: want budget exhaustion, got %v", err)
	}
	if !f.Crashed() {
		b := durabilityWorkload()
		b.Cache = c
		if _, err := b.Build(); err != nil && !f.Crashed() {
			return "", false, fmt.Errorf("stage B: %v", err)
		}
	}
	crashed := f.Crashed()

	// Restart: the same (mutated) cache implementation over the real disk.
	rc, err := cache.Open(dir)
	if err != nil {
		return "", crashed, err
	}
	rc.Mutate(mut)
	r := durabilityWorkload()
	r.Cache = rc
	if _, err := r.Build(); err != nil {
		return fmt.Sprintf("crash at op %d: recovery build failed: %v", at, err), crashed, nil
	}
	raw, err := os.ReadFile(rc.EntryPath(desc))
	if err != nil {
		return fmt.Sprintf("crash at op %d: recovered snapshot unreadable: %v", at, err), crashed, nil
	}
	if !bytes.Equal(raw, ref) {
		return fmt.Sprintf("crash at op %d: recovered snapshot differs from the one-shot reference", at), crashed, nil
	}
	res, err := rc.Fsck(false)
	if err != nil {
		return "", crashed, err
	}
	if len(res.Findings) > 0 {
		f0 := res.Findings[0]
		return fmt.Sprintf("crash at op %d: fsck after recovery: %s: %s", at, f0.Name, f0.Problem), crashed, nil
	}
	return "", crashed, nil
}

// detectCheckpointLoadable pins the promise the checkpoint-saved notice
// makes: a checkpoint the cache reports saved must be loadable and valid
// when audited by an unmutated reader — otherwise the rerun silently degrades
// to the cold build the user interrupted a run to avoid.
func detectCheckpointLoadable(mut cache.Mutation) (string, error) {
	dir, err := os.MkdirTemp("", "durability-ckpt-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	c, err := cache.Open(dir)
	if err != nil {
		return "", err
	}
	c.Mutate(mut)
	sys := durabilityWorkload()
	sys.Cache = c
	if _, err := sys.BuildWith(engine.Budget{MaxStates: 8}.Meter()); !isBudgetError(err) {
		return "", fmt.Errorf("want budget exhaustion, got %v", err)
	}
	desc := sys.CanonicalDesc()
	if _, err := os.Stat(c.CheckpointPath(desc)); err != nil {
		return "", fmt.Errorf("no checkpoint written: %w", err)
	}
	auditor, err := cache.OpenWith(dir, cache.Options{KeepOrphans: true})
	if err != nil {
		return "", err
	}
	snap, err := auditor.LoadCheckpoint(desc)
	if err != nil {
		return fmt.Sprintf("saved checkpoint is unreadable: %v", err), nil
	}
	if snap == nil {
		return "saved checkpoint loads as a miss", nil
	}
	if !snap.Valid(false) {
		return "saved checkpoint fails structural validation", nil
	}
	return "", nil
}

// detectCorruptEntryRejected flips one bit of a stored entry's trailing
// checksum and requires the (mutated) cache to reject the entry on load: a
// single flipped bit anywhere in the file must never be served as a graph.
func detectCorruptEntryRejected(mut cache.Mutation) (string, error) {
	dir, err := os.MkdirTemp("", "durability-flip-*")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	c, err := cache.Open(dir)
	if err != nil {
		return "", err
	}
	c.Mutate(mut)
	sys := durabilityWorkload()
	sys.Cache = c
	if _, err := sys.Build(); err != nil {
		return "", err
	}
	desc := sys.CanonicalDesc()
	path := c.EntryPath(desc)
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	snap, err := c.Load(desc)
	if snap != nil && err == nil {
		return "cache served an entry whose trailing checksum does not match its contents", nil
	}
	return "", nil
}
