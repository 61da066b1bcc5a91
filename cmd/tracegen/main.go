// Command tracegen reproduces Figure 2 of Abadi & Lamport, "Open Systems in
// TLA": the state table of the two-phase handshake protocol sending a
// sequence of values.
//
// Usage:
//
//	tracegen                      (the paper's 37, 4, 19)
//	tracegen -values 7,8,9 -chan c
//
// Exit codes: 0 = trace generated, 2 = invalid flags or generation failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"opentla/internal/handshake"
	"opentla/internal/obs"
	"opentla/internal/tracetab"
	"opentla/internal/value"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	valsFlag := fs.String("values", "37,4,19", "comma-separated values to send (at least one)")
	chanName := fs.String("chan", "c", "channel name (no dots, commas, or spaces)")
	pf := obs.AddProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfiles, err := pf.Start()
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "tracegen:", err)
		}
	}()
	if *chanName == "" || strings.ContainsAny(*chanName, ". ,") {
		fmt.Fprintf(stderr, "tracegen: invalid channel name %q (must be non-empty, no dots, commas, or spaces)\n", *chanName)
		return 2
	}
	var vals []value.Value
	for _, part := range strings.Split(*valsFlag, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "tracegen: parsing value %q: %v\n", part, err)
			return 2
		}
		vals = append(vals, value.Int(n))
	}
	if len(vals) == 0 {
		fmt.Fprintln(stderr, "tracegen: -values must list at least one value")
		return 2
	}
	c := handshake.Chan(*chanName)
	b, err := c.Trace(value.Int(0), vals)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	fmt.Fprintf(stdout, "Two-phase handshake on channel %s (Fig. 2):\n\n", *chanName)
	fmt.Fprint(stdout, tracetab.Table(b, []string{c.Ack(), c.Sig(), c.Val()}))
	fmt.Fprintf(stdout, "\nsteps: %s  (%d states, %d sends)\n", strings.Join(tracetab.Diff(b), " ; "), len(b), len(vals))
	return 0
}
