// Command agprof analyzes a performance-telemetry capture: the Chrome Trace
// Event JSON written by agcheck/queueverify -trace, optionally joined with
// the run report written by -report. It prints per-worker utilization, one
// row per explored graph (states, successors per state, expand time), and
// a ranked bottleneck attribution of the measured wall time across four
// buckets — successor generation, barrier (wait + commit), reduction
// (canonicalization), and cache I/O — so "where did the time go?" has a
// one-command answer.
//
// Usage:
//
//	agprof -trace out.json [-report report.json] [-max-commit-pct 10]
//
// -max-commit-pct gates the single-threaded barrier-seal share of wall: CI
// uses it to assert the serial commit bucket stays an Amdahl non-issue.
//
// Exit codes: 0 = analyzed (and gate passed, if set), 1 = gate exceeded,
// 2 = usage or unreadable input.
package main

import (
	"fmt"
	"io"
	"os"

	"flag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tracePath := fs.String("trace", "", "trace JSON written by -trace (required)")
	reportPath := fs.String("report", "", "run report written by -report (optional: adds contention and cache counters)")
	maxCommitPct := fs.Float64("max-commit-pct", 0,
		"fail (exit 1) if the single-threaded barrier-seal share of wall exceeds this percentage (0 = no gate)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tracePath == "" || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: agprof -trace out.json [-report report.json] [-max-commit-pct 10]")
		return 2
	}

	prof, err := loadTrace(*tracePath)
	if err != nil {
		fmt.Fprintln(stderr, "agprof:", err)
		return 2
	}
	var rep *reportMetrics
	if *reportPath != "" {
		rep, err = loadReport(*reportPath)
		if err != nil {
			fmt.Fprintln(stderr, "agprof:", err)
			return 2
		}
	}
	printProfile(stdout, prof, rep)
	if *maxCommitPct > 0 {
		if share := 100 * prof.serialCommitShare(); share > *maxCommitPct {
			fmt.Fprintf(stderr, "agprof: serial commit share %.1f%% exceeds -max-commit-pct %.1f%%\n",
				share, *maxCommitPct)
			return 1
		}
	}
	return 0
}
