package ag_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/engine"
	"opentla/internal/faultinject"
	"opentla/internal/queue"
)

var update = flag.Bool("update", false, "rewrite the report golden file")

const reportsGolden = "testdata/reports.golden"

// reportCases returns the theorem checks whose full reports the golden
// pins: CheckWith at N=1 K=2 on every agcheck model and on every
// faultinject theorem mutant, and FirstFailure on queues-no-g.
func reportCases() []struct {
	name string
	run  func(workers int) (*ag.Report, error)
} {
	type tc = struct {
		name string
		run  func(workers int) (*ag.Report, error)
	}
	with := func(mk func() *ag.Theorem, first bool) func(int) (*ag.Report, error) {
		return func(workers int) (*ag.Report, error) {
			th := mk()
			th.Workers = workers
			if first {
				return th.FirstFailure(engine.NoLimit())
			}
			return th.CheckWith(engine.NoLimit())
		}
	}
	var cases []tc
	for _, m := range theoremModels() {
		cases = append(cases, tc{"CheckWith/" + m.name, with(m.make, false)})
		if m.name == "queues-no-g" {
			cases = append(cases, tc{"FirstFailure/" + m.name, with(m.make, true)})
		}
	}
	cfg := queue.Config{N: 1, Vals: 2}
	for _, mu := range faultinject.Catalog(cfg) {
		mu := mu
		cases = append(cases, tc{"CheckWith/mutant/" + mu.Name, with(func() *ag.Theorem {
			th := cfg.Fig9Theorem()
			if err := mu.Apply(th); err != nil {
				panic(fmt.Sprintf("mutant %s: %v", mu.Name, err))
			}
			return th
		}, false)})
	}
	return cases
}

// renderReports renders every case's report at the given worker count.
func renderReports(t *testing.T, workers int) string {
	t.Helper()
	var sb strings.Builder
	for _, c := range reportCases() {
		r, err := c.run(workers)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&sb, "=== %s\n%s", c.name, r)
	}
	return sb.String()
}

// TestReportsGolden pins the full text of theorem reports, counterexamples
// included, at several worker counts: which hypotheses are checked, in
// what order, with which verdicts and details. Regenerate with -update only
// when a change means to alter a report.
func TestReportsGolden(t *testing.T) {
	if *update {
		if err := os.WriteFile(reportsGolden, []byte(renderReports(t, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(reportsGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 3} {
		if got := renderReports(t, workers); got != string(want) {
			t.Errorf("workers=%d: reports differ from %s:\n%s", workers, reportsGolden, firstDiff(got, string(want)))
		}
	}
}

// firstDiff shows the first differing line of got and want.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	return "(equal)"
}
