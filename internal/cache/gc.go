package cache

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
)

// GCResult summarizes one garbage-collection pass.
type GCResult struct {
	// Removed lists the deleted filenames, junk first, then evicted entries
	// oldest-first.
	Removed []string
	// FreedBytes is the total size of the removed files.
	FreedBytes int64
	// KeptBytes is the cache's size after the pass.
	KeptBytes int64
}

// gcEntry is one collectable file, ordered for deterministic eviction.
type gcEntry struct {
	name string
	info fs.FileInfo
	junk bool // quarantined or orphaned temp: always removed first
}

// GC shrinks the cache to at most maxBytes. Junk — quarantined entries and
// orphaned temp files — is always removed regardless of the bound; live
// entries (.snap/.ckpt) are then evicted least-recently-used first until the
// bound holds. Eviction order is deterministic: (mtime, name) ascending, so
// two GC passes over identical directory states remove identical files.
// maxBytes <= 0 removes junk only.
//
// GC runs after every store of a bounded cache, so it judges files by name
// alone and never reads an entry: a stale entry (another codec version) is
// evicted like any other live entry, or removed at its first load.
func (c *Cache) GC(maxBytes int64) (GCResult, error) {
	var res GCResult
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return res, fmt.Errorf("cache gc: %w", err)
	}
	var files []gcEntry
	var total int64
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		k := kindOf(name)
		if k == kindOther {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		files = append(files, gcEntry{name: name, info: info, junk: !k.live()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		a, b := files[i], files[j]
		if a.junk != b.junk {
			return a.junk
		}
		if !a.info.ModTime().Equal(b.info.ModTime()) {
			return a.info.ModTime().Before(b.info.ModTime())
		}
		return a.name < b.name
	})
	for _, f := range files {
		if !f.junk && (maxBytes <= 0 || total <= maxBytes) {
			break
		}
		if err := c.fs.Remove(filepath.Join(c.dir, f.name)); err != nil {
			return res, fmt.Errorf("cache gc: %w", err)
		}
		total -= f.info.Size()
		res.Removed = append(res.Removed, f.name)
		res.FreedBytes += f.info.Size()
		why := "evicted (LRU, over size bound)"
		if f.junk {
			why = "removed junk"
		}
		c.note("cache-gc", fmt.Sprintf("%s %s (%d bytes)", why, f.name, f.info.Size()))
	}
	res.KeptBytes = total
	return res, nil
}

// autoGC runs after every store when the cache is size-bounded. Best-effort:
// a failing GC must not fail the store that triggered it — the entry is
// already durable, and the bound will be retried at the next store.
func (c *Cache) autoGC() {
	if c.maxBytes <= 0 {
		return
	}
	c.GC(c.maxBytes)
}
