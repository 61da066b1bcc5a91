package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"opentla/internal/cache"
)

// newFlagSet starts a command's flag set with the shared -cache-dir flag.
func newFlagSet(name string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("agcachectl "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs, fs.String("cache-dir", "", "the cache directory to administer (required)")
}

// openAdmin parses a command's flags and opens the cache for
// administration: the directory must already exist (an admin tool that
// silently created an empty cache at a mistyped path would report a
// spotless fsck of nothing) and orphaned temp files are kept so fsck can
// report them.
func openAdmin(fs *flag.FlagSet, args []string, dir *string, stderr io.Writer) (*cache.Cache, int) {
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "agcachectl: -cache-dir is required")
		return nil, 2
	}
	info, err := os.Stat(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "agcachectl: %v\n", err)
		return nil, 2
	}
	if !info.IsDir() {
		fmt.Fprintf(stderr, "agcachectl: %s is not a directory\n", *dir)
		return nil, 2
	}
	c, err := cache.OpenWith(*dir, cache.Options{KeepOrphans: true})
	if err != nil {
		fmt.Fprintf(stderr, "agcachectl: %v\n", err)
		return nil, 2
	}
	return c, 0
}

func runFsck(args []string, stdout, stderr io.Writer) int {
	fs, dir := newFlagSet("fsck", stderr)
	quarantine := fs.Bool("quarantine", false, "move damaged live entries aside to *.quarantined (stale entries stay)")
	c, code := openAdmin(fs, args, dir, stderr)
	if c == nil {
		return code
	}
	res, err := c.Fsck(*quarantine)
	if err != nil {
		fmt.Fprintf(stderr, "agcachectl: %v\n", err)
		return 2
	}
	for _, f := range res.Stale {
		fmt.Fprintf(stdout, "STALE %s: %s (superseded: removed at its first load)\n", f.Name, f.Problem)
	}
	for _, f := range res.Findings {
		action := ""
		if f.Quarantined {
			action = " [quarantined]"
		}
		fmt.Fprintf(stdout, "BAD  %s: %s%s\n", f.Name, f.Problem, action)
	}
	scanned := fmt.Sprintf("fsck: %d entries scanned", res.Scanned)
	if len(res.Stale) > 0 {
		scanned += fmt.Sprintf(", %d stale", len(res.Stale))
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(stdout, "%s, %d findings\n", scanned, len(res.Findings))
		return 1
	}
	fmt.Fprintf(stdout, "%s, clean\n", scanned)
	return 0
}

func runGC(args []string, stdout, stderr io.Writer) int {
	fs, dir := newFlagSet("gc", stderr)
	maxBytes := fs.Int64("max-bytes", 0, "evict LRU live entries until the cache is at most this large (0 = remove junk only)")
	c, code := openAdmin(fs, args, dir, stderr)
	if c == nil {
		return code
	}
	if *maxBytes < 0 {
		fmt.Fprintln(stderr, "agcachectl: -max-bytes must be >= 0")
		return 2
	}
	res, err := c.GC(*maxBytes)
	if err != nil {
		fmt.Fprintf(stderr, "agcachectl: %v\n", err)
		return 2
	}
	for _, name := range res.Removed {
		fmt.Fprintf(stdout, "removed %s\n", name)
	}
	fmt.Fprintf(stdout, "gc: removed %d files (%d bytes), %d bytes kept\n",
		len(res.Removed), res.FreedBytes, res.KeptBytes)
	return 0
}

func runStat(args []string, stdout, stderr io.Writer) int {
	fs, dir := newFlagSet("stat", stderr)
	asJSON := fs.Bool("json", false, "emit the counts as a single JSON object")
	c, code := openAdmin(fs, args, dir, stderr)
	if c == nil {
		return code
	}
	st, err := c.Stat()
	if err != nil {
		fmt.Fprintf(stderr, "agcachectl: %v\n", err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			fmt.Fprintf(stderr, "agcachectl: %v\n", err)
			return 2
		}
		return 0
	}
	fmt.Fprintf(stdout, "snapshots:   %d\n", st.Snapshots)
	fmt.Fprintf(stdout, "checkpoints: %d\n", st.Checkpoints)
	fmt.Fprintf(stdout, "quarantined: %d\n", st.Quarantined)
	fmt.Fprintf(stdout, "temp files:  %d\n", st.TempFiles)
	fmt.Fprintf(stdout, "other files: %d\n", st.Other)
	fmt.Fprintf(stdout, "total bytes: %d\n", st.TotalBytes)
	return 0
}
