package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestDefaultPrintsFig2 pins the default run: the paper's Figure 2 rows for
// sending 37, 4, 19 on channel c, and exit code 0.
func TestDefaultPrintsFig2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	for _, row := range []string{
		"       0  1  2 3 4  5  6\n",
		"c.ack: 0  0  1 1 0  0  1\n",
		"c.sig: 0  1  1 0 0  1  1\n",
		"c.val: 0 37 37 4 4 19 19\n",
		"(7 states, 3 sends)\n",
	} {
		if !strings.Contains(out.String(), row) {
			t.Errorf("stdout missing %q:\n%s", row, out.String())
		}
	}
	if errb.Len() != 0 {
		t.Errorf("stderr should be empty, got %q", errb.String())
	}
}

// TestUsageErrors: invalid values, an invalid channel name, and the graph
// flags tracegen does not take each exit 2 with nothing on stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-values", "3,x,7"},
		{"-chan", "a.b"},
		{"-workers", "2"},
		{"-cache-dir", "d"},
		{"-resume"},
		{"-no-cache"},
		{"-cache-max-bytes", "10"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v): stdout should be empty, got %q", args, out.String())
		}
		if errb.Len() == 0 {
			t.Errorf("run(%v): stderr should say why", args)
		}
	}
}
