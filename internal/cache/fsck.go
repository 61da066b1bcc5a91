package cache

import (
	"encoding/hex"
	"errors"
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
	// Quarantined reports whether Fsck moved the file out of the live set.
	Quarantined bool
}

// FsckResult summarizes one integrity check of the cache directory.
type FsckResult struct {
	// Scanned counts the live entries (.snap/.ckpt) examined.
	Scanned int
	// Findings lists every problem, in directory (filename) order.
	Findings []Finding
	// Stale lists the live entries written in another codec version, in
	// directory order. They are superseded, not damaged, so they are not
	// findings: a load removes each as a miss, and gc evicts it like any
	// other entry.
	Stale []Finding
}

// junkProblems says what is wrong with each kind of file that is not a live
// entry.
var junkProblems = [...]string{
	kindOther:       "unrecognized file in cache directory",
	kindTemp:        "orphaned temp file (interrupted writer; swept at next Open)",
	kindQuarantined: "quarantined entry awaiting manual inspection or gc",
}

// Fsck verifies every file in the cache directory: live entries must have a
// well-formed content-addressed name, decode under the full codec checks
// (magic, version, trailing checksum), embed a description digest matching
// their filename, and satisfy the structural graph invariants. Orphaned temp
// files, quarantined entries, and unrecognized files are reported as
// findings too, so a clean cache yields exactly zero findings. An entry of
// another codec version is listed as stale, not as a finding.
//
// With quarantine set, damaged live entries are quarantined on the way
// through, as a load would (reported in the finding); everything else,
// stale entries included, is left alone.
func (c *Cache) Fsck(quarantine bool) (FsckResult, error) {
	var res FsckResult
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return res, fmt.Errorf("cache fsck: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		k := kindOf(name)
		switch {
		case ent.IsDir():
			res.Findings = append(res.Findings, Finding{Name: name, Problem: "unexpected directory in cache"})
			continue
		case !k.live():
			res.Findings = append(res.Findings, Finding{Name: name, Problem: junkProblems[k]})
			continue
		}
		res.Scanned++
		err := c.checkEntry(name, k)
		switch {
		case err == nil:
		case errors.Is(err, errVersion):
			res.Stale = append(res.Stale, Finding{Name: name, Problem: err.Error()})
		default:
			f := Finding{Name: name, Problem: err.Error()}
			if quarantine {
				f.Quarantined = c.quarantine(filepath.Join(c.dir, name), err)
			}
			res.Findings = append(res.Findings, f)
		}
	}
	return res, nil
}

// checkEntry validates one live entry of kind k. Unlike Load, fsck has no
// requesting system, so the description digest the file embeds is
// cross-checked against its content-addressed filename instead of a
// caller-supplied digest.
func (c *Cache) checkEntry(name string, k kind) error {
	stem := strings.TrimSuffix(name, suffixes[k])
	fnv, sha8, ok := strings.Cut(stem, "-")
	if !ok || len(fnv) != 16 || len(sha8) != 16 {
		return errors.New("filename is not <fnv64>-<sha8> content-addressed form")
	}
	data, err := c.fs.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		return fmt.Errorf("unreadable: %w", err)
	}
	snap, descSum, err := decodeWith(data, true)
	if err != nil {
		return err
	}
	// Only after the entry proves internally consistent is a key mismatch
	// meaningful: a corrupt file is corruption, not mis-filing.
	if !strings.EqualFold(hex.EncodeToString(descSum[:8]), sha8) {
		return errors.New("embedded description digest does not match the filename (entry stored under the wrong key)")
	}
	if !snap.Valid(k == kindSnap) {
		return errors.New("decoded snapshot violates structural graph invariants")
	}
	return nil
}

// Stats describes the cache directory's current contents, judged by file
// name alone. Its JSON form is agcachectl's `stat -json` output, a
// published contract (CI and scripts parse it with jq): extend it by adding
// fields, never by renaming or removing.
type Stats struct {
	Snapshots   int   `json:"snapshots"`   // complete-graph entries, stale ones included
	Checkpoints int   `json:"checkpoints"` // partial-exploration checkpoints
	Quarantined int   `json:"quarantined"` // entries moved aside as unreadable
	TempFiles   int   `json:"temp_files"`  // orphaned temp files
	Other       int   `json:"other_files"` // unrecognized files
	TotalBytes  int64 `json:"total_bytes"` // size of everything counted above
}

// Stat tallies the cache directory without reading entry contents.
func (c *Cache) Stat() (Stats, error) {
	var st Stats
	ents, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return st, fmt.Errorf("cache stat: %w", err)
	}
	count := [...]*int{kindOther: &st.Other, kindSnap: &st.Snapshots, kindCkpt: &st.Checkpoints,
		kindTemp: &st.TempFiles, kindQuarantined: &st.Quarantined}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		*count[kindOf(ent.Name())]++
		if info, err := ent.Info(); err == nil {
			st.TotalBytes += info.Size()
		}
	}
	return st, nil
}
