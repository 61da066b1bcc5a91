package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
)

// Finding is one problem Fsck found with a cache file.
type Finding struct {
	// Name is the offending filename (relative to the cache directory).
	Name string
	// Problem says what is wrong, in one sentence.
	Problem string
	// Quarantined reports whether Fsck moved the file aside.
	Quarantined bool
}

// FsckResult summarizes one integrity check of the cache directory.
type FsckResult struct {
	// Scanned counts the live entries (.snap/.ckpt) examined.
	Scanned int
	// Findings lists every problem, in directory (filename) order.
	Findings []Finding
}

// Fsck verifies every file in the cache directory: live entries must have a
// well-formed content-addressed name, decode under the full codec checks
// (magic, version, trailing checksum), embed a description digest matching
// their filename, and satisfy the structural graph invariants. Orphaned temp
// files, quarantined entries, and unrecognized files are reported as
// findings too, so a clean cache yields exactly zero findings.
//
// With quarantine set, corrupt live entries are renamed to *.quarantined on
// the way through (reported in the finding); everything else is left alone.
func (c *Cache) Fsck(quarantine bool) (FsckResult, error) {
	var res FsckResult
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return res, fmt.Errorf("cache fsck: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() {
			res.Findings = append(res.Findings, Finding{Name: name, Problem: "unexpected directory in cache"})
			continue
		}
		switch {
		case strings.HasSuffix(name, ".snap"), strings.HasSuffix(name, ".ckpt"):
			res.Scanned++
			problem := c.checkEntry(name)
			if problem == "" {
				continue
			}
			f := Finding{Name: name, Problem: problem}
			if quarantine {
				path := filepath.Join(c.dir, name)
				if err := c.fs.Rename(path, path+".quarantined"); err == nil {
					f.Quarantined = true
					c.note("cache-quarantine", fmt.Sprintf("fsck quarantined %s: %s", name, problem))
				}
			}
			res.Findings = append(res.Findings, f)
		case strings.HasSuffix(name, ".tmp"):
			res.Findings = append(res.Findings, Finding{Name: name, Problem: "orphaned temp file (interrupted writer; swept at next Open)"})
		case strings.HasSuffix(name, ".quarantined"):
			res.Findings = append(res.Findings, Finding{Name: name, Problem: "quarantined entry awaiting manual inspection or gc"})
		default:
			res.Findings = append(res.Findings, Finding{Name: name, Problem: "unrecognized file in cache directory"})
		}
	}
	return res, nil
}

// checkEntry validates one live entry, returning "" or the problem. Unlike
// Load, fsck has no requesting system, so the description digest is taken
// from the file itself and cross-checked against the content-addressed
// filename instead of a caller-supplied digest.
func (c *Cache) checkEntry(name string) string {
	stem := strings.TrimSuffix(strings.TrimSuffix(name, ".snap"), ".ckpt")
	parts := strings.SplitN(stem, "-", 2)
	if len(parts) != 2 || len(parts[0]) != 16 || len(parts[1]) != 16 {
		return "filename is not <fnv64>-<sha8> content-addressed form"
	}
	wantSha8, err := hex.DecodeString(parts[1])
	if err != nil {
		return "filename digest is not hexadecimal"
	}
	data, err := c.fs.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		return fmt.Sprintf("unreadable: %v", err)
	}
	if len(data) < headerLen+1+checksumLen {
		return fmt.Sprintf("truncated: %d bytes, header alone needs %d", len(data), headerLen+1+checksumLen)
	}
	var descSum [sha256.Size]byte
	copy(descSum[:], data[10:10+sha256.Size])
	snap, err := decodeWith(data, descSum, true)
	if err != nil {
		return err.Error()
	}
	// Only after the entry proves internally consistent is a key mismatch
	// meaningful: a corrupt file is corruption, not mis-filing.
	if !strings.EqualFold(hex.EncodeToString(descSum[:8]), hex.EncodeToString(wantSha8)) {
		return "embedded description digest does not match the filename (entry stored under the wrong key)"
	}
	if !snap.Valid(strings.HasSuffix(name, ".snap")) {
		return "decoded snapshot violates structural graph invariants"
	}
	return ""
}

// Stats describes the cache directory's current contents.
type Stats struct {
	Snapshots   int   // complete-graph entries
	Checkpoints int   // partial-exploration checkpoints
	Quarantined int   // entries moved aside as unreadable
	TempFiles   int   // orphaned temp files
	Other       int   // unrecognized files
	TotalBytes  int64 // size of everything counted above
}

// Stat tallies the cache directory without reading entry contents.
func (c *Cache) Stat() (Stats, error) {
	var st Stats
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return st, fmt.Errorf("cache stat: %w", err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".snap"):
			st.Snapshots++
		case strings.HasSuffix(name, ".ckpt"):
			st.Checkpoints++
		case strings.HasSuffix(name, ".quarantined"):
			st.Quarantined++
		case strings.HasSuffix(name, ".tmp"):
			st.TempFiles++
		default:
			st.Other++
		}
		if info, err := ent.Info(); err == nil {
			st.TotalBytes += info.Size()
		}
	}
	return st, nil
}
