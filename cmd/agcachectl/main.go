// Command agcachectl administers the persistent graph cache that agcheck
// and queueverify maintain under -cache-dir.
//
// Usage:
//
//	agcachectl fsck -cache-dir <dir> [-quarantine]
//	agcachectl gc   -cache-dir <dir> [-max-bytes <n>]
//	agcachectl stat -cache-dir <dir> [-json]
//
// fsck verifies every file in the cache: live entries must carry the
// content-addressed name of their own description digest, decode under the
// full codec checks (magic, version, trailing SHA-256), and satisfy the
// structural graph invariants; temp files, quarantined entries, and foreign
// files are reported too. With -quarantine, damaged live entries are moved
// aside to *.quarantined. An entry of another codec version is listed as
// STALE: it is superseded, not damaged, so it is no finding and -quarantine
// leaves it; the first load removes it as a miss. Exit codes: 0 = clean
// (stale entries included), 1 = findings, 2 = error.
//
// gc removes junk (quarantined entries, orphaned temp files) and, with
// -max-bytes, evicts least-recently-used live entries until the cache fits
// the bound. Eviction order is deterministic. Exit codes: 0 = done
// (including nothing to do), 2 = error.
//
// gc and stat judge files by name alone, so a stale entry counts as a live
// one: stat counts it, and gc evicts it by LRU order.
//
// stat prints the cache's entry counts and total size. Exit codes: 0, 2.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: agcachectl <command> [flags]

commands:
  fsck -cache-dir <dir> [-quarantine]   verify every cache file; exit 1 on findings
  gc   -cache-dir <dir> [-max-bytes n]  remove junk and evict LRU entries over the bound
  stat -cache-dir <dir> [-json]         print entry counts and total size
`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "fsck":
		return runFsck(rest, stdout, stderr)
	case "gc":
		return runGC(rest, stdout, stderr)
	case "stat":
		return runStat(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "agcachectl: unknown command %q\n%s", cmd, usage)
		return 2
	}
}
