package iofs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"time"
)

// FaultMode selects what goes wrong at one planned operation index.
type FaultMode int

const (
	// FaultNone leaves the operation alone.
	FaultNone FaultMode = iota
	// FaultTransient fails the operation with a transient error (the
	// retryable class: the cache's bounded retry should absorb it).
	FaultTransient
	// FaultNoSpace fails the operation with a permanent ENOSPC-style error.
	FaultNoSpace
	// FaultShortWrite persists only a prefix of a Write's data, then fails
	// with a transient error (a torn write the retry path must clean up).
	// On non-write operations it behaves like FaultTransient.
	FaultShortWrite
	// FaultSyncDrop makes a Sync report success without making the data
	// durable: a later crash loses everything written since the previous
	// effective sync.
	FaultSyncDrop
	// FaultCrash kills the simulated process at this operation: the
	// operation's durable effect is suppressed (writes keep at most a torn,
	// unsynced prefix; renames and removes do not happen), all data written
	// but never effectively synced is torn away, and every subsequent
	// operation fails with ErrCrashed.
	FaultCrash
)

// String renders the mode.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultTransient:
		return "transient"
	case FaultNoSpace:
		return "nospace"
	case FaultShortWrite:
		return "short-write"
	case FaultSyncDrop:
		return "sync-drop"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("FaultMode(%d)", int(m))
	}
}

// CrashExitCode is the process exit code of a planted crash (see
// NewCrash), distinct from the verdict codes (0/1/2) so scripts/chaos.sh
// can tell "killed at the planned operation" from every other outcome.
const CrashExitCode = 7

// ErrCrashed is returned by every operation after a planned FaultCrash
// fired: the simulated process is dead and can touch nothing.
var ErrCrashed = errors.New("iofs: simulated crash: filesystem frozen")

// errNoSpace is the permanent-failure class.
var errNoSpace = errors.New("injected fault: no space left on device")

// Faulty is a deterministic fault-injecting FS. It forwards to an inner FS
// (in practice OS over a test directory) and consults a plan keyed by the
// 1-based index of each mutating operation — CreateTemp, Write, Sync,
// Close, Rename, Remove, Chtimes. Read-side operations never consume an
// index: they cannot change the disk, so they are not crash points.
//
// Durability model: data written to a temp file becomes durable only at an
// effective (non-dropped) Sync. A FaultCrash truncates every tracked file
// back to its last durable length — adversarially assuming the kernel never
// flushed anything on its own — so tests exercise the worst permitted
// outcome of a real crash, torn files included.
//
// Faulty reaches around the FS interface with os.Truncate to tear files at
// crash time, so the inner FS must be rooted on a real directory.
//
// A Faulty made by NewCrash kills the process at its crash instead.
type Faulty struct {
	inner FS
	plan  map[int]FaultMode
	exit  func(int) // nil: a FaultCrash freezes the FS; else it is called with CrashExitCode

	mu      sync.Mutex
	ops     int
	crashed bool
	// files maps current path -> durable (synced) length for files written
	// through this FS; entries follow renames.
	files map[string]int64
}

var _ FS = (*Faulty)(nil)

// NewFaulty wraps inner with the given fault plan (1-based mutating-op
// index -> mode). A nil plan injects nothing and only counts operations.
func NewFaulty(inner FS, plan map[int]FaultMode) *Faulty {
	return &Faulty{inner: inner, plan: plan, files: make(map[string]int64)}
}

// NewCrash wraps inner to kill the process at mutating operation at
// (1-based), emulating a power loss or SIGKILL in the middle of cache
// persistence: a Faulty whose plan holds one FaultCrash, at which it calls
// exit with CrashExitCode (nil = os.Exit; tests inject a panic) before
// tearing anything. So a crashing Write leaves half its buffer in the file
// for the restart to face, and every other crashing operation dies before
// it takes effect. scripts/chaos.sh drives it through
// OPENTLA_CACHE_CRASH_AT (see cache.Flags).
func NewCrash(inner FS, at int, exit func(int)) *Faulty {
	if exit == nil {
		exit = os.Exit
	}
	f := NewFaulty(inner, map[int]FaultMode{at: FaultCrash})
	f.exit = exit
	return f
}

// SeededPlan derives a deterministic random plan from a seed: each of the
// first nOps mutating operations independently draws a fault with
// probability pFault, uniformly among the non-crash modes. Crashes are
// placed explicitly by the chaos sweep, not sampled, so a seeded plan
// exercises the retry/degrade paths without ending the run.
func SeededPlan(seed int64, nOps int, pFault float64) map[int]FaultMode {
	rng := rand.New(rand.NewSource(seed))
	modes := []FaultMode{FaultTransient, FaultNoSpace, FaultShortWrite, FaultSyncDrop}
	plan := make(map[int]FaultMode)
	for i := 1; i <= nOps; i++ {
		if rng.Float64() < pFault {
			plan[i] = modes[rng.Intn(len(modes))]
		}
	}
	return plan
}

// Ops returns the number of mutating operations attempted so far.
func (f *Faulty) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether a planned crash has fired.
func (f *Faulty) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// next advances the mutating-op counter and returns the planned fault for
// this operation. Caller holds f.mu.
func (f *Faulty) next() FaultMode {
	f.ops++
	return f.plan[f.ops]
}

// crash kills the process through f.exit if one is set, and otherwise tears
// every tracked file down to its durable length and freezes the filesystem.
// Caller holds f.mu.
func (f *Faulty) crash() {
	if f.exit != nil {
		f.exit(CrashExitCode)
		// Injected exit funcs (tests) panic instead of returning; an exit
		// func that returns anyway would let the run continue past its own
		// death.
		panic("iofs: crash exit func returned")
	}
	f.crashed = true
	for path, synced := range f.files {
		if _, err := os.Stat(path); err != nil {
			continue
		}
		os.Truncate(path, synced)
	}
}

// MkdirAll implements FS. Directory creation happens once at Open, before
// any interesting write sequence; it is not a planned crash point.
func (f *Faulty) MkdirAll(path string, perm fs.FileMode) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return f.inner.MkdirAll(path, perm)
}

// ReadFile implements FS.
func (f *Faulty) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	return f.inner.ReadFile(path)
}

// ReadDir implements FS.
func (f *Faulty) ReadDir(path string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	return f.inner.ReadDir(path)
}

// Stat implements FS.
func (f *Faulty) Stat(path string) (fs.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	return f.inner.Stat(path)
}

// CreateTemp implements FS.
func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	switch f.next() {
	case FaultCrash:
		f.crash()
		return nil, ErrCrashed
	case FaultTransient, FaultShortWrite:
		return nil, fmt.Errorf("creating temp file: %w", ErrTransient)
	case FaultNoSpace:
		return nil, errNoSpace
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	f.files[inner.Name()] = 0
	return &faultyFile{fs: f, inner: inner}, nil
}

// Rename implements FS.
func (f *Faulty) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	switch f.next() {
	case FaultCrash:
		f.crash()
		return ErrCrashed
	case FaultTransient, FaultShortWrite:
		return fmt.Errorf("rename %s: %w", oldpath, ErrTransient)
	case FaultNoSpace:
		return errNoSpace
	}
	if err := f.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	if synced, ok := f.files[oldpath]; ok {
		delete(f.files, oldpath)
		f.files[newpath] = synced
	}
	return nil
}

// Remove implements FS.
func (f *Faulty) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	switch f.next() {
	case FaultCrash:
		f.crash()
		return ErrCrashed
	case FaultTransient, FaultShortWrite:
		return fmt.Errorf("remove %s: %w", path, ErrTransient)
	case FaultNoSpace:
		return errNoSpace
	}
	if err := f.inner.Remove(path); err != nil {
		return err
	}
	delete(f.files, path)
	return nil
}

// Chtimes implements FS.
func (f *Faulty) Chtimes(path string, atime, mtime time.Time) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	switch f.next() {
	case FaultCrash:
		f.crash()
		return ErrCrashed
	case FaultTransient, FaultShortWrite:
		return fmt.Errorf("chtimes %s: %w", path, ErrTransient)
	case FaultNoSpace:
		return errNoSpace
	}
	return f.inner.Chtimes(path, atime, mtime)
}

// faultyFile tracks written-vs-durable lengths for the crash model.
type faultyFile struct {
	fs      *Faulty
	inner   File
	written int64
}

// Write implements File.
func (w *faultyFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.crashed {
		return 0, ErrCrashed
	}
	switch w.fs.next() {
	case FaultCrash:
		// Torn write: a prefix reaches the file, then the process dies. The
		// crash model tears it back to the durable length anyway, but the
		// intermediate state exercises the truncation path.
		if n := len(p) / 2; n > 0 {
			w.inner.Write(p[:n])
			w.written += int64(n)
		}
		w.fs.crash()
		return 0, ErrCrashed
	case FaultShortWrite:
		n := len(p) / 2
		if n > 0 {
			w.inner.Write(p[:n])
			w.written += int64(n)
		}
		return n, fmt.Errorf("short write (%d of %d bytes): %w", n, len(p), ErrTransient)
	case FaultTransient:
		return 0, fmt.Errorf("write %s: %w", w.inner.Name(), ErrTransient)
	case FaultNoSpace:
		return 0, errNoSpace
	}
	n, err := w.inner.Write(p)
	w.written += int64(n)
	return n, err
}

// Sync implements File.
func (w *faultyFile) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.crashed {
		return ErrCrashed
	}
	switch w.fs.next() {
	case FaultCrash:
		w.fs.crash()
		return ErrCrashed
	case FaultSyncDrop:
		// Lie: report success without durability.
		return nil
	case FaultTransient, FaultShortWrite:
		return fmt.Errorf("sync %s: %w", w.inner.Name(), ErrTransient)
	case FaultNoSpace:
		return errNoSpace
	}
	if err := w.inner.Sync(); err != nil {
		return err
	}
	if _, ok := w.fs.files[w.inner.Name()]; ok {
		w.fs.files[w.inner.Name()] = w.written
	}
	return nil
}

// Close implements File. Close alone does not make data durable: only an
// effective Sync advances the durable length.
func (w *faultyFile) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.crashed {
		return ErrCrashed
	}
	switch w.fs.next() {
	case FaultCrash:
		w.fs.crash()
		return ErrCrashed
	case FaultTransient, FaultShortWrite:
		return fmt.Errorf("close %s: %w", w.inner.Name(), ErrTransient)
	case FaultNoSpace:
		return errNoSpace
	}
	return w.inner.Close()
}

// Name implements File.
func (w *faultyFile) Name() string { return w.inner.Name() }
