package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark input: a CLI invocation whose verdict is known.
// The inputs are fixed model instances, so a workload is deterministic; the
// seed only orders the runs.
type workload struct {
	name string
	tool string   // agcheck or queueverify
	args []string // the check, with tracing off
	// warm marks the warm-cache workload. Its runs read a cache that its
	// set-up runs filled, so its set-up is exploration plus snapshot writes
	// and its runs explore no states.
	warm bool
	want verdict
}

// workloads returns the four workloads. k is the value-domain size of the
// Fig. 9 and Appendix A instances and kSym that of the symmetry-reduced one
// (3 and 4 in the benchmark; the tests shrink both). Each run is one child
// process with at most nproc workers.
func workloads(k, kSym, cpus int) ([]*workload, error) {
	fig9 := []string{"-model", "queues", "-n", "1", "-k", strconv.Itoa(k), "-workers", "1"}
	ws := []*workload{
		{name: "fig9", tool: "agcheck", args: fig9},
		{name: "appendix-a", tool: "queueverify", args: []string{"-n", "1", "-k", strconv.Itoa(k), "-workers", strconv.Itoa(min(2, cpus))}},
		{name: "fig9-sym", tool: "agcheck", args: []string{"-model", "queues", "-n", "1", "-k", strconv.Itoa(kSym), "-reduce", "sym", "-workers", "1"}},
		{name: "fig9-warm", tool: "agcheck", args: fig9, warm: true},
	}
	for _, w := range ws {
		v, err := loadVerdict(w.name)
		if err != nil {
			return nil, err
		}
		w.want = v
	}
	return ws, nil
}

// sample is one finished CLI run.
type sample struct {
	wall, cpu, rssMB float64
	states           float64 // from the "run stats:" line; -1 when absent
}

var runStats = regexp.MustCompile(`(?m)^run stats: (\d+) states`)

// runTimeout bounds one child process, so a wedged check fails the run
// instead of outliving the benchmark's own time limit.
const runTimeout = 150 * time.Second

// exec runs tool with args in the work directory, waits for it, and checks
// its exit code and verdict lines against want. A mismatch is counted as a
// failed run and reported on stderr; only a child that cannot be started or
// measured is an error.
func (h *harness) exec(tool string, args []string, want verdict) (sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(h.bin, tool), args...)
	cmd.Dir = h.work
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return sample{}, fmt.Errorf("running %s: %w", tool, err)
	}
	ps := cmd.ProcessState
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return sample{}, fmt.Errorf("running %s: no rusage for the child", tool)
	}
	s := sample{
		wall:   wall,
		cpu:    (ps.UserTime() + ps.SystemTime()).Seconds(),
		rssMB:  float64(ru.Maxrss) / 1024, // Linux reports maxrss in KiB
		states: -1,
	}
	if m := runStats.FindStringSubmatch(stdout.String()); m != nil {
		s.states, _ = strconv.ParseFloat(m[1], 64)
	}
	h.attempted++
	if err := want.check(ps.ExitCode(), stdout.String()); err != nil {
		h.failed++
		fmt.Fprintf(os.Stderr, "bench: WRONG ANSWER from %s %s: %v\n%s", tool, strings.Join(args, " "), err, stderr.String())
	}
	return s, nil
}

// run is one timed run of the workload.
func (h *harness) run(w *workload) (sample, error) {
	return h.exec(w.tool, w.runArgs(), w.want)
}

// runArgs returns the timed runs' command line; the warm workload reads the
// cache its first set-up run filled.
func (w *workload) runArgs() []string {
	if w.warm {
		return append(append([]string(nil), w.args...), "-cache-dir", warmDir(w))
	}
	return w.args
}

// warmDir is relative to the work directory, where every CLI runs.
func warmDir(w *workload) string { return w.name + "-cache" }

// setup is one set-up measurement, in seconds. For the cold workloads it is
// the time to the first explored state: process start, model construction,
// vet and absint, and domain materialization, ended by -max-states 1. For the
// warm workload it is a cache-filling run into a fresh directory; the first
// one fills the directory the timed runs read.
func (h *harness) setup(w *workload, i int) (float64, error) {
	if !w.warm {
		s, err := h.exec(w.tool, append(append([]string(nil), w.args...), "-max-states", "1"), h.setupWant)
		return s.wall, err
	}
	dir := warmDir(w)
	if i > 0 {
		dir = fmt.Sprintf("%s-fill-%d", w.name, i)
		defer os.RemoveAll(filepath.Join(h.work, dir))
	}
	s, err := h.exec(w.tool, append(append([]string(nil), w.args...), "-cache-dir", dir), w.want)
	return s.wall, err
}
