package main

import (
	"embed"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// The known answers live in testdata/<name>.verdict: a first line "exit N"
// followed by the verdict lines a correct run prints, in order. Lines
// starting with # are comments. State counts and timings are stripped from
// both sides, so a change that explores fewer states (a graph memo, a better
// reduction) is not a wrong answer; only the verdict is.
//
//go:embed testdata/*.verdict
var verdictFiles embed.FS

type verdict struct {
	exit  int
	lines []string
}

func loadVerdict(name string) (verdict, error) {
	data, err := verdictFiles.ReadFile("testdata/" + name + ".verdict")
	if err != nil {
		return verdict{}, fmt.Errorf("known answer for %s: %w", name, err)
	}
	var v verdict
	seenExit := false
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case !seenExit:
			code, ok := strings.CutPrefix(line, "exit ")
			n, err := strconv.Atoi(code)
			if !ok || err != nil {
				return verdict{}, fmt.Errorf("known answer for %s: first line must be \"exit N\", got %q", name, line)
			}
			v.exit, seenExit = n, true
		default:
			v.lines = append(v.lines, line)
		}
	}
	if !seenExit || len(v.lines) == 0 {
		return verdict{}, fmt.Errorf("known answer for %s: needs an exit line and at least one verdict line", name)
	}
	return v, nil
}

// verdictLine selects the lines of CLI output that state a verdict: the
// per-hypothesis [OK  ]/[FAIL] lines, the theorem's VALID / NOT ESTABLISHED
// / UNKNOWN line, and queueverify's §A.4 and formula (3) lines.
var verdictLine = regexp.MustCompile(`^(\[OK  \]|\[FAIL\]|VALID:|NOT ESTABLISHED|UNKNOWN:|CDQ => CQ\^dbl|formula \(3\) without G:|first failing hypothesis:)`)

// measured matches a trailing "(9792 states max)" or "(1.206s)" annotation.
var measured = regexp.MustCompile(`\s*\((\d+ states max|\d[0-9.hmsµ]*)\)$`)

// verdictLines extracts the normalized verdict lines of a run's stdout.
func verdictLines(stdout string) []string {
	var out []string
	for _, line := range strings.Split(stdout, "\n") {
		line = strings.TrimSpace(line)
		if verdictLine.MatchString(line) {
			out = append(out, measured.ReplaceAllString(line, ""))
		}
	}
	return out
}

// check compares a finished run against the known answer.
func (v verdict) check(exit int, stdout string) error {
	if exit != v.exit {
		return fmt.Errorf("exit code %d, want %d", exit, v.exit)
	}
	got := verdictLines(stdout)
	for i := 0; i < len(got) || i < len(v.lines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(v.lines) {
			w = v.lines[i]
		}
		if g != w {
			return fmt.Errorf("verdict line %d is %q, want %q", i+1, g, w)
		}
	}
	return nil
}
