package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tinyConfig runs every workload at K=2 with one set-up run, one timed run
// and one repetition of each micro-benchmark: the whole harness, end to end,
// in a few seconds.
var tinyConfig = config{k: 2, kSym: 2, reps: 1, coldSetups: 1, warmFills: 1, microReps: 1}

func TestHarnessEndToEnd(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	d, err := loadDeclared(root)
	if err != nil {
		t.Fatal(err)
	}
	all, err := workloads(tinyConfig.k, tinyConfig.kSym, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(root, tinyConfig)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	res, err := h.set(all, all, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%d of %d runs and checks gave a wrong answer", res.Failed, res.Attempted)
	}

	// Every metric BENCHMARK.json declares is in every workload's result
	// line, with the declared unit.
	for _, w := range all {
		for _, traced := range []bool{false, true} {
			l, err := res.line(d, w.name, traced)
			if err != nil {
				t.Fatal(err)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(l.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json declares %d", w.name, traced, len(l.Metrics), len(want))
			}
			for _, m := range want {
				if got := l.Metrics[m.Name]; got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				}
			}
		}
		for _, m := range endToEnd {
			if s := res.Workloads[w.name].EndToEnd[m.name]; s.Unit != m.unit || s.N == 0 {
				t.Errorf("%s: end-to-end metric %s has unit %q and %d samples", w.name, m.name, s.Unit, s.N)
			}
		}
	}
	// BENCHMARK.json declares exactly the harness's per-layer metrics.
	if len(d.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the harness measures %d", len(d.PerLayer), len(perLayer))
	}
	for _, s := range []string{"wall_s", "cpu_s", "peak_rss_mb", "setup_s"} {
		if v := res.Workloads["fig9"].EndToEnd[s].Median; v <= 0 {
			t.Errorf("fig9 %s = %v, want a positive measurement", s, v)
		}
	}
}

const currentReport = `{"schema_version": 7, "verdict": "HOLDS", "stats": {"states": 3, "sccs": 1},
  "span": {"name": "run", "dur_ms": 2, "children": [{"name": "vet", "dur_ms": 1}]}}`

func TestReportSchemaBumpFailsLoudly(t *testing.T) {
	r, err := parseReport([]byte(currentReport))
	if err != nil {
		t.Fatalf("schema 7 report rejected: %v", err)
	}
	if secs, err := r.spanSecs("vet"); err != nil || secs != 0.001 {
		t.Errorf("vet span = %v, %v; want 0.001 s", secs, err)
	}
	bumped := strings.Replace(currentReport, `"schema_version": 7`, `"schema_version": 8`, 1)
	if r, err := parseReport([]byte(bumped)); err == nil || r != nil || !strings.Contains(err.Error(), "schema_version 8") {
		t.Errorf("schema 8 report: got %v, %v; want a schema_version error", r, err)
	}

	// A counter that is missing, as after a rename, is an error, and so is
	// a report without the spans a metric reads: neither becomes a zero.
	m, err := parseMetrics([]byte("# TYPE opentla_levels_total counter\nopentla_levels_total 96\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := m.get("opentla_worker_busy_nanoseconds_total"); err == nil {
		t.Errorf("missing series read as %v, want an error", v)
	}
	run := &tracedRun{rep: r, prom: m}
	runs := map[string]*tracedRun{"fig9": run, "appendix-a": run, "fig9-sym": run, "fig9-warm-fill": run, "fig9-warm": run}
	if err := derive(map[string]float64{}, runs); err == nil {
		t.Error("derive accepted runs without the spans and series it reads")
	}
	if _, err := parseMetrics([]byte("opentla_levels_total ninety\n")); err == nil {
		t.Error("a malformed metrics line was accepted")
	}
}

func TestVerdictCheck(t *testing.T) {
	for _, name := range []string{"fig9", "appendix-a", "fig9-sym", "fig9-warm", "setup"} {
		if _, err := loadVerdict(name); err != nil {
			t.Error(err)
		}
	}
	want := verdict{exit: 0, lines: []string{"[OK  ] H1: x", "VALID: y"}}
	good := "Composition Theorem check: T\n  [OK  ] H1: x\nVALID: y  (9792 states max)\nrun stats: 5 states\n"
	if err := want.check(0, good); err != nil {
		t.Errorf("correct run rejected: %v", err)
	}
	for _, tc := range []struct {
		exit   int
		stdout string
	}{
		{1, good},
		{0, strings.Replace(good, "[OK  ]", "[FAIL]", 1)},
		{0, strings.Replace(good, "VALID: y  (9792 states max)", "NOT ESTABLISHED", 1)},
		{0, good + "first failing hypothesis: H1\n"},
	} {
		if err := want.check(tc.exit, tc.stdout); err == nil {
			t.Errorf("exit %d with %q accepted", tc.exit, tc.stdout)
		}
	}
	if got := verdictLines("formula (3) without G: correctly NOT established (1m2.5s)"); len(got) != 1 || got[0] != "formula (3) without G: correctly NOT established" {
		t.Errorf("timing not stripped: %q", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestCompare(t *testing.T) {
	d := &declared{EndToEnd: []declaredMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	set := func(wall []float64) *results {
		o := &outcome{wall: wall, cpu: []float64{1}, rss: []float64{50}, setup: []float64{0.1}, states: []float64{7}, attempted: len(wall)}
		return &results{Workloads: map[string]*workloadResult{"fig9": {EndToEnd: o.stats(1)}}}
	}
	dir := t.TempDir()
	write := func(name string, r *results) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", set([]float64{1.00, 1.01, 1.02}))
	for _, tc := range []struct {
		name     string
		wall     []float64
		code     int
		contains string
	}{
		{"same", []float64{1.01, 1.02, 1.00}, 0, "agree"},
		{"slower", []float64{1.30, 1.31, 1.32}, 1, "DISAGREE"},
		{"noisy", []float64{0.5, 1.0, 1.5}, 0, "unresolved"},
	} {
		var out strings.Builder
		code, err := compare(d, base, write(tc.name+".json", set(tc.wall)), &out)
		if err != nil || code != tc.code || !strings.Contains(out.String(), tc.contains) {
			t.Errorf("%s: code %d, err %v, want code %d and %q in\n%s", tc.name, code, err, tc.code, tc.contains, out.String())
		}
	}
}
