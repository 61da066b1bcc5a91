package cache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"opentla/internal/iofs"
	"opentla/internal/ts"
)

// Cache is a disk-backed ts.GraphCache rooted at one directory. Complete
// graphs live in <fnv64>-<sha8>.snap files, checkpoints in .ckpt files with
// the same stem; both are written through the iofs.FS seam with the full
// durability sequence (temp file, write, fsync, close, atomic rename), so a
// crashed writer leaves at worst a stale temp file, never a torn entry.
//
// The cache is self-healing:
//
//   - transient write errors are retried with bounded exponential backoff;
//   - entries that fail to decode are quarantined (renamed to
//     *.quarantined) so they never block the cold build that replaces them;
//     entries of another codec version are removed, a plain miss;
//   - orphaned temp files left by a killed process are swept on Open;
//   - an optional size bound evicts least-recently-used entries after every
//     store (see GC).
//
// Every self-healing action is reported through the notify seam (SetNotify),
// which the CLIs wire to the engine meter so the actions land in the flight
// recorder and the run report's cache section.
type Cache struct {
	dir string
	fs  iofs.FS

	maxBytes int64
	retries  int
	backoff  time.Duration
	sleep    func(time.Duration)
	now      func() time.Time

	mut Mutation

	notify  func(kind, msg string)
	pending []pendingEvent
}

type pendingEvent struct{ kind, msg string }

var _ ts.GraphCache = (*Cache)(nil)

// Options configures OpenWith. The zero value is the production setup.
type Options struct {
	// FS is the filesystem implementation (nil = iofs.OS).
	FS iofs.FS
	// MaxBytes, when positive, bounds the cache's total size: after every
	// store, least-recently-used entries are evicted until the bound holds.
	MaxBytes int64
	// Retries is the number of additional attempts after a transient write
	// failure (negative = default of 2).
	Retries int
	// Backoff is the first retry's delay, doubled per attempt (0 = 5ms).
	Backoff time.Duration
	// Sleep and Now are injectable for deterministic tests (nil = real).
	Sleep func(time.Duration)
	Now   func() time.Time
	// KeepOrphans skips the Open-time orphaned-temp-file sweep. Admin
	// tooling (agcachectl fsck) sets it to report orphans instead of
	// silently repairing them.
	KeepOrphans bool
}

// Open creates the cache directory if needed and returns a production cache
// over it, sweeping any orphaned temp files a killed process left behind.
func Open(dir string) (*Cache, error) {
	return OpenWith(dir, Options{Retries: -1})
}

// OpenWith is Open with explicit options.
func OpenWith(dir string, opts Options) (*Cache, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = iofs.OS{}
	}
	retries := opts.Retries
	if retries < 0 {
		retries = 2
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 5 * time.Millisecond
	}
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := &Cache{
		dir:      dir,
		fs:       fsys,
		maxBytes: opts.MaxBytes,
		retries:  retries,
		backoff:  backoff,
		sleep:    sleep,
		now:      now,
	}
	if !opts.KeepOrphans {
		c.sweepOrphans()
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// SetNotify installs the event sink receiving self-healing diagnostics
// ("cache-sweep", "cache-quarantine", "cache-retry", "cache-gc"), usually
// an engine.Meter's Note method. Events emitted before the sink existed
// (the Open-time orphan sweep) are flushed to it immediately.
func (c *Cache) SetNotify(fn func(kind, msg string)) {
	c.notify = fn
	if fn != nil {
		for _, e := range c.pending {
			fn(e.kind, e.msg)
		}
		c.pending = nil
	}
}

// note emits one self-healing event, buffering it if no sink is installed.
func (c *Cache) note(kind, msg string) {
	if c.notify != nil {
		c.notify(kind, msg)
		return
	}
	c.pending = append(c.pending, pendingEvent{kind, msg})
}

// EntryPath returns the path a complete-graph snapshot for desc occupies,
// whether or not it exists. CI uses it to byte-compare snapshot files.
func (c *Cache) EntryPath(desc string) string { return c.path(desc, ".snap") }

// CheckpointPath returns the path a checkpoint for desc occupies.
func (c *Cache) CheckpointPath(desc string) string { return c.path(desc, ".ckpt") }

func (c *Cache) path(desc, ext string) string {
	fnv, sum := Digest(desc)
	return filepath.Join(c.dir, fmt.Sprintf("%016x-%x%s", fnv, sum[:8], ext))
}

// Load returns the cached complete graph for desc, (nil, nil) on a miss, or
// an error describing why an existing entry was unusable. An unusable entry
// is quarantined on the way out, so it cannot block the cold build that
// follows: the next run sees a clean miss. An entry of another codec
// version is removed and is itself a miss.
func (c *Cache) Load(desc string) (*ts.Snapshot, error) {
	return c.load(desc, ".snap")
}

// LoadCheckpoint returns the saved checkpoint for desc, (nil, nil) if none.
// Unusable checkpoints are quarantined like entries.
func (c *Cache) LoadCheckpoint(desc string) (*ts.Snapshot, error) {
	return c.load(desc, ".ckpt")
}

func (c *Cache) load(desc, ext string) (*ts.Snapshot, error) {
	path := c.path(desc, ext)
	data, err := c.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	_, sum := Digest(desc)
	snap, err := decodeWith(data, sum, c.mut != MutDropChecksum)
	if errors.Is(err, errVersion) {
		// Another build's format is a miss, not corruption: drop it
		// (best-effort, the cold build's store replaces it anyway).
		c.fs.Remove(path)
		return nil, nil
	}
	if err != nil {
		c.quarantine(path, err)
		return nil, fmt.Errorf("cache %s: %w", filepath.Base(path), err)
	}
	// Touch the entry so LRU eviction sees the hit. Best-effort: a
	// read-only cache still serves hits.
	t := c.now()
	c.fs.Chtimes(path, t, t)
	return snap, nil
}

// Store persists a complete graph for desc and removes any checkpoint left
// from an interrupted build of the same system (the snapshot supersedes it).
// When a size bound is configured, the store is followed by a GC pass.
func (c *Cache) Store(desc string, snap *ts.Snapshot) error {
	if err := c.store(desc, ".snap", snap); err != nil {
		return err
	}
	if err := c.fs.Remove(c.path(desc, ".ckpt")); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cache: removing stale checkpoint: %w", err)
	}
	c.autoGC()
	return nil
}

// StoreCheckpoint persists a partial-exploration checkpoint for desc.
func (c *Cache) StoreCheckpoint(desc string, snap *ts.Snapshot) error {
	if err := c.store(desc, ".ckpt", snap); err != nil {
		return err
	}
	c.autoGC()
	return nil
}

func (c *Cache) store(desc, ext string, snap *ts.Snapshot) error {
	_, sum := Digest(desc)
	data, err := Encode(snap, sum)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	if c.mut == MutTruncateCheckpoint && ext == ".ckpt" {
		data = data[:len(data)/2]
	}
	path := c.path(desc, ext)
	// Bounded retry with exponential backoff: transient failures (the
	// injected analogue of EINTR-class errors) get retries-many more
	// attempts, each from a fresh temp file; permanent failures (ENOSPC,
	// read-only filesystem) abort immediately — the caller degrades, the
	// build result is unaffected.
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		err = c.writeEntry(path, data)
		if err == nil {
			return nil
		}
		if attempt >= c.retries || !iofs.IsTransient(err) {
			return fmt.Errorf("cache: %w", err)
		}
		c.note("cache-retry", fmt.Sprintf("transient failure writing %s (attempt %d of %d), retrying in %v: %v",
			filepath.Base(path), attempt+1, c.retries+1, backoff, err))
		c.sleep(backoff)
		backoff *= 2
	}
}

// writeEntry performs one durable-write attempt: temp file, write, fsync,
// close, atomic rename. Any failure removes the temp file (best-effort).
func (c *Cache) writeEntry(path string, data []byte) error {
	f, err := c.fs.CreateTemp(c.dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if c.mut == MutSkipAtomicRename {
		// Fault-injection mutant: expose the final path before the data is
		// written, exactly what a naive non-atomic writer does. The POSIX fd
		// stays valid across the rename, so writes land at path.
		if err := c.fs.Rename(tmp, path); err != nil {
			f.Close()
			return err
		}
		tmp = path
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		c.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		c.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		c.fs.Remove(tmp)
		return err
	}
	if c.mut == MutSkipAtomicRename {
		return nil
	}
	if err := c.fs.Rename(tmp, path); err != nil {
		c.fs.Remove(tmp)
		return err
	}
	return nil
}

// quarantine moves an unreadable entry aside so it can never block a cold
// rebuild, falling back to deletion if even the rename fails. Best-effort:
// quarantine failure still leaves the caller degrading to a cold build.
func (c *Cache) quarantine(path string, cause error) {
	dest := path + ".quarantined"
	if err := c.fs.Rename(path, dest); err != nil {
		if rmErr := c.fs.Remove(path); rmErr != nil {
			c.note("cache-quarantine", fmt.Sprintf("unreadable entry %s could not be quarantined (%v) or removed (%v); manual cleanup needed: %v",
				filepath.Base(path), err, rmErr, cause))
			return
		}
		c.note("cache-quarantine", fmt.Sprintf("removed unreadable entry %s (quarantine rename failed: %v): %v",
			filepath.Base(path), err, cause))
		return
	}
	c.note("cache-quarantine", fmt.Sprintf("quarantined unreadable entry %s -> %s: %v",
		filepath.Base(path), filepath.Base(dest), cause))
}

// sweepOrphans removes temp files left in the cache directory by a killed
// process. Run at Open, before any writer can be mid-flight in this
// process. Best-effort: an unreadable directory degrades to no sweep.
func (c *Cache) sweepOrphans() {
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".tmp") {
			continue
		}
		if err := c.fs.Remove(filepath.Join(c.dir, name)); err != nil {
			continue
		}
		c.note("cache-sweep", fmt.Sprintf("removed orphaned temp file %s (left by an interrupted writer)", name))
	}
}

// Mutation is a deliberate durability fault planted in the cache for the
// fault-injection harness (see internal/faultinject's durability catalog).
// Production code never sets one; each mutant must be caught by the chaos
// harness's invariants — a surviving mutant is evidence of a hole in the
// harness.
type Mutation int

const (
	// MutNone is the unmutated cache.
	MutNone Mutation = iota
	// MutDropChecksum skips trailing-checksum verification on load, so a
	// torn or bit-flipped entry can decode as a wrong graph.
	MutDropChecksum
	// MutSkipAtomicRename writes entries in place instead of via temp file
	// + rename, so a crash mid-write leaves a torn entry at the final path.
	MutSkipAtomicRename
	// MutTruncateCheckpoint persists only half of every checkpoint, so a
	// reported checkpoint-save is not actually resumable.
	MutTruncateCheckpoint
)

// Mutate plants a durability fault. Fault-injection testing aid only.
func (c *Cache) Mutate(m Mutation) { c.mut = m }
