package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/queue"
)

// TestExitCodes pins the exit-code contract shared with agcheck: 0 when
// everything verifies, 2 on usage errors, startup failures, and undecided
// (budget-exhausted) runs — never 1 for anything but a genuine violation.
func TestExitCodes(t *testing.T) {
	tests := []struct {
		name   string
		args   []string
		code   int
		stderr string // required stderr substring, "" = don't care
	}{
		{"verifies", []string{"-n", "1", "-k", "2"}, 0, ""},
		{"stall timeout armed but quiet", []string{"-n", "1", "-k", "2", "-stall-timeout", "10m"}, 0, ""},
		{"bad flag", []string{"-nonesuch"}, 2, "flag provided but not defined"},
		{"removed -v", []string{"-v"}, 2, "flag provided but not defined: -v"},
		{"bad n", []string{"-n", "0"}, 2, "capacity N must be >= 1"},
		{"bad k", []string{"-k", "1"}, 2, "value-domain size K must be >= 2"},
		{"removed -resume", []string{"-resume"}, 2, "flag provided but not defined: -resume"},
		{"removed -no-cache", []string{"-no-cache"}, 2, "flag provided but not defined: -no-cache"},
		{"negative cache bound", []string{"-cache-dir", "d", "-cache-max-bytes", "-1"}, 2, "-cache-max-bytes must be >= 0"},
		{"cache bound without dir", []string{"-cache-max-bytes", "4096"}, 2, "-cache-max-bytes requires -cache-dir"},
		{"profile start failure", []string{"-cpuprofile", "no/such/dir/cpu.prof"}, 2, ""},
		{"budget exhausted", []string{"-n", "1", "-k", "2", "-max-states", "10"}, 2, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(tt.args, &out, &errb)
			if code != tt.code {
				t.Errorf("run(%v) = %d, want %d (stderr %q)", tt.args, code, tt.code, errb.String())
			}
			if tt.stderr != "" && !strings.Contains(errb.String(), tt.stderr) {
				t.Errorf("stderr %q missing %q", errb.String(), tt.stderr)
			}
		})
	}
}

// TestBudgetExhaustedWritesReport: an undecided run still writes a
// schema-valid report with the UNKNOWN verdict and partial statistics.
func TestBudgetExhaustedWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-n", "1", "-k", "2", "-max-states", "10", "-report", path}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(out.String(), "UNKNOWN") {
		t.Errorf("stdout %q missing the UNKNOWN verdict", out.String())
	}
	rep := readReport(t, path)
	if rep.Verdict != "UNKNOWN" {
		t.Errorf("verdict = %q, want UNKNOWN", rep.Verdict)
	}
	if !strings.Contains(rep.UnknownReason, "state budget 10 exceeded") {
		t.Errorf("unknown_reason = %q, want the exhausted state budget", rep.UnknownReason)
	}
}

// TestBudgetStopCountsAreScheduleIndependent stops a two-worker run
// mid-level, many times over: a level's transitions count only once the
// level commits, so every run prints the same partial progress, transitions
// included, whichever rows each worker finished before the stop.
func TestBudgetStopCountsAreScheduleIndependent(t *testing.T) {
	elapsed := regexp.MustCompile(`, elapsed .*`)
	lines := map[string]int{}
	for i := 0; i < 30; i++ {
		var out, errb bytes.Buffer
		if code := run([]string{"-n", "1", "-k", "2", "-max-states", "300", "-workers", "2"}, &out, &errb); code != 2 {
			t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "partial progress") {
				lines[elapsed.ReplaceAllString(line, "")]++
			}
		}
	}
	if len(lines) != 1 {
		t.Errorf("30 budget-stopped runs printed %d distinct partial progress lines: %v", len(lines), lines)
	}
}

// TestStartupFailureStillWritesReport pins the agcheck-parity bugfix:
// usage errors detected before verification must not skip -report.
func TestStartupFailureStillWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-n", "0", "-report", path}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	rep := readReport(t, path)
	if rep.Tool != "queueverify" || rep.Verdict != "UNKNOWN" {
		t.Errorf("report header = %s/%s, want queueverify/UNKNOWN", rep.Tool, rep.Verdict)
	}
	if !strings.Contains(rep.UnknownReason, "capacity N must be >= 1") {
		t.Errorf("unknown_reason = %q, want the dimension error", rep.UnknownReason)
	}
}

// TestReportWriteFailureExitsTwo: a run that verifies but cannot write its
// report is a tooling failure (exit 2), not a verification verdict.
func TestReportWriteFailureExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-n", "1", "-k", "2", "-report", filepath.Join(t.TempDir(), "no", "such", "dir", "r.json")}, &out, &errb)
	if code != 2 {
		t.Errorf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "writing run report") {
		t.Errorf("stderr %q missing the report-write failure", errb.String())
	}
}

// TestWarmCacheRun: the second run against a populated cache reports hits
// and explores nothing, with the same verdict.
func TestWarmCacheRun(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	args := func(report string) []string {
		return []string{"-n", "1", "-k", "2", "-cache-dir", cacheDir, "-report", report}
	}
	cold := filepath.Join(dir, "cold.json")
	warm := filepath.Join(dir, "warm.json")
	var out, errb bytes.Buffer
	if code := run(args(cold), &out, &errb); code != 0 {
		t.Fatalf("cold run exit code = %d (stderr %q)", code, errb.String())
	}
	if code := run(args(warm), &out, &errb); code != 0 {
		t.Fatalf("warm run exit code = %d (stderr %q)", code, errb.String())
	}
	coldRep, warmRep := readReport(t, cold), readReport(t, warm)
	if warmRep.Cache == nil || warmRep.Cache.Hits == 0 {
		t.Fatalf("warm run cache section = %+v, want hits > 0", warmRep.Cache)
	}
	if warmRep.Stats.States != 0 {
		t.Errorf("warm run explored %d states, want 0", warmRep.Stats.States)
	}
	if warmRep.Verdict != coldRep.Verdict {
		t.Errorf("warm verdict %q != cold verdict %q", warmRep.Verdict, coldRep.Verdict)
	}
}

func readReport(t *testing.T, path string) *obs.Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no report written: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.SchemaVersion != obs.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", rep.SchemaVersion, obs.SchemaVersion)
	}
	return &rep
}

func TestVetModeUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-vet", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), `invalid vet mode "bogus"`) {
		t.Errorf("stderr %q missing the vet mode error", errb.String())
	}
}

// TestReportCarriesVetSection pins that a default (warn-mode) run attaches
// the vet section to the run report, with zero errors on the shipped spec.
func TestReportCarriesVetSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-n", "1", "-k", "2", "-report", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Vet == nil {
		t.Fatal("report has no vet section")
	}
	if rep.Vet.Mode != "warn" || rep.Vet.Errors != 0 {
		t.Errorf("vet section = mode %q, %d errors; want warn with 0", rep.Vet.Mode, rep.Vet.Errors)
	}
}

// TestOversizedInstanceSkipsVet pins the fast-failure property of
// oversized runs: the vet pre-check must not materialize the Figure 9
// domains for an instance the budgeted build is about to reject, so
// -N 6 -K 8 still returns UNKNOWN promptly instead of hanging. The state
// budget ends the run once the build is under way; without it the build
// explores until the wall-clock budget.
func TestOversizedInstanceSkipsVet(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-N", "6", "-K", "8", "-budget-ms", "5000", "-max-states", "20000"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "vet: skipped") {
		t.Errorf("stderr %q missing the vet-skipped notice", errb.String())
	}
	if !strings.Contains(out.String(), "UNKNOWN") {
		t.Errorf("stdout %q missing the UNKNOWN verdict", out.String())
	}
}

// TestVetTractable pins the analyzer-derived tractability gate. The
// expected cardinalities are the closed form Σ_{l=0..2N+1} K^l for the
// abstract queue's contents: absint must infer exactly that count from
// the Len guard, without ever materializing the sequence domain.
func TestVetTractable(t *testing.T) {
	tests := []struct {
		n, k, limit int
		want        bool
	}{
		{1, 2, 1 << 20, true},  // 1+2+4+8 = 15 sequences
		{2, 3, 1 << 20, true},  // lengths <= 5 over 3 values: 364
		{1, 2, 15, true},       // exactly at the limit
		{1, 2, 14, false},      // one under
		{6, 8, 1 << 20, false}, // 8^13 blows any sane limit
	}
	for _, tt := range tests {
		got := vetTractable(queue.Config{N: tt.n, Vals: tt.k}, tt.limit)
		if got != tt.want {
			t.Errorf("vetTractable(N=%d,K=%d,limit=%d) = %v, want %v", tt.n, tt.k, tt.limit, got, tt.want)
		}
	}
}

// TestStrictRefusesOverBudgetBound: in strict mode, a state-space bound
// (SV140) above -max-states refuses the run up front — the budgeted build
// would only discover the same fact after burning the whole budget.
func TestStrictRefusesOverBudgetBound(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-vet", "strict", "-max-states", "10"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "SV140") {
		t.Errorf("stderr %q missing the SV140 budget warning", errb.String())
	}
	if !strings.Contains(errb.String(), "exceeds -max-states 10") {
		t.Errorf("stderr %q missing the strict refusal message", errb.String())
	}
	// Warn mode only warns: the run proceeds (and the tiny budget then
	// stops the build with the usual UNKNOWN verdict).
	var out2, errb2 bytes.Buffer
	code = run([]string{"-vet", "warn", "-max-states", "10"}, &out2, &errb2)
	if code != 2 {
		t.Fatalf("warn-mode exit code = %d, want 2 (budget exhaustion)", code)
	}
	if !strings.Contains(errb2.String(), "SV140") {
		t.Errorf("warn-mode stderr %q missing the SV140 warning", errb2.String())
	}
	if !strings.Contains(out2.String(), "UNKNOWN") {
		t.Errorf("warn-mode stdout %q missing UNKNOWN", out2.String())
	}
}

// TestWorkersAndReduceValidation: absurd -workers counts and malformed
// -reduce modes are usage errors (exit 2 with a pointed message), never
// requests to be satisfied.
func TestWorkersAndReduceValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{"zero workers", []string{"-workers", "0"}, "-workers must be >= 1"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be >= 1"},
		{"very negative workers", []string{"-workers", "-100000"}, "-workers must be >= 1"},
		{"absurd workers", []string{"-workers", "1000000"}, "exceeds the maximum"},
		{"bad reduce mode", []string{"-reduce", "magic"}, `invalid -reduce mode "magic"`},
		{"removed por mode", []string{"-reduce", "por"}, "want off|sym"},
		{"removed por,sym mode", []string{"-reduce", "por,sym"}, "want off|sym"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Errorf("run(%v) = %d, want 2 (stderr %q)", tc.args, code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q missing %q", errb.String(), tc.want)
			}
		})
	}
}

// TestProgressIntervalValidation mirrors agcheck's contract: non-positive
// -progress-interval is a usage error (exit 2), positive periods work.
func TestProgressIntervalValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"zero", []string{"-n", "1", "-k", "2", "-progress", "-progress-interval", "0"}, 2},
		{"negative", []string{"-n", "1", "-k", "2", "-progress-interval", "-5ms"}, 2},
		{"positive", []string{"-n", "1", "-k", "2", "-progress", "-progress-interval", "50ms"}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != tc.want {
				t.Fatalf("run(%v) = %d, want %d (stderr %q)", tc.args, code, tc.want, errb.String())
			}
			if tc.want == 2 && !strings.Contains(errb.String(), "-progress-interval must be positive") {
				t.Errorf("stderr %q missing the interval rejection", errb.String())
			}
		})
	}
}

// TestTraceOutput: the Figure 9 driver writes a loadable Chrome trace when
// asked; the scaling recipe in EXPERIMENTS.md depends on this path.
func TestTraceOutput(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	code := run([]string{"-n", "1", "-k", "2", "-workers", "2", "-trace", tracePath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("no trace written: %v", err)
	}
	var wire struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(wire.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

// TestReduceFlagVerifies: the full Appendix A replay still verifies end to
// end with reduction enabled, and reports the reduced CQ build as such.
func TestReduceFlagVerifies(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-n", "1", "-k", "2", "-reduce", "sym"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run(%v) = %d, want 0 (stderr %q)", args, code, errb.String())
	}
	if !strings.Contains(out.String(), "[reduced: sym]") {
		t.Errorf("stdout missing reduced-build marker:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "VALID") {
		t.Errorf("stdout missing VALID verdict:\n%s", out.String())
	}
}

// parseOutputs checks that the report, trace and metrics files a run was
// asked for exist and parse: the report and trace as JSON, the metrics as
// Prometheus text (comments and `name[{labels}] value` samples). A report
// path of "" is skipped.
func parseOutputs(t *testing.T, report, trace, prom string) {
	t.Helper()
	if report != "" {
		var rep obs.Report
		if data, err := os.ReadFile(report); err != nil || json.Unmarshal(data, &rep) != nil || rep.Verdict != "UNKNOWN" {
			t.Errorf("report %s missing or not an UNKNOWN report (err %v)", report, err)
		}
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if data, err := os.ReadFile(trace); err != nil || json.Unmarshal(data, &tr) != nil || len(tr.TraceEvents) == 0 {
		t.Errorf("trace %s missing or unparsable (err %v)", trace, err)
	}
	data, err := os.ReadFile(prom)
	if err != nil || len(data) == 0 {
		t.Fatalf("metrics %s missing or empty (err %v)", prom, err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if f := strings.Fields(line); !strings.HasPrefix(line, "#") && len(f) != 2 {
			t.Errorf("metrics line %q does not parse", line)
		}
	}
}

// TestEarlyExitsWriteEveryOutput: every exit that has a verdict writes all
// three requested files from the one record — the strict-vet refusal, a
// startup failure, budget exhaustion — and a report that cannot be written
// does not stop the trace and metrics.
func TestEarlyExitsWriteEveryOutput(t *testing.T) {
	for _, tt := range []struct {
		name      string
		args      []string
		badReport bool
	}{
		{"vet strict refusal", []string{"-n", "1", "-k", "2", "-vet", "strict", "-max-states", "10"}, false},
		{"startup failure", []string{"-n", "1", "-k", "1"}, false},
		{"budget exhausted", []string{"-n", "1", "-k", "2", "-max-states", "50"}, false},
		{"report write failure", []string{"-n", "1", "-k", "2", "-vet", "strict", "-max-states", "10"}, true},
	} {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			report := filepath.Join(dir, "r.json")
			if tt.badReport {
				report = filepath.Join(dir, "missing", "r.json")
			}
			trace, prom := filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prom")
			var out, errb bytes.Buffer
			args := append(tt.args, "-report", report, "-trace", trace, "-metrics-out", prom)
			if code := run(args, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, errb.String())
			}
			if tt.badReport {
				report = ""
			}
			parseOutputs(t, report, trace, prom)
		})
	}
}

// TestA4Line pins how §A.4 is read off a Fig. 9 report: OK exactly when
// every (2b) entry holds, whatever the other hypotheses say; FAILED with
// the failing entry's detail otherwise; no line for an undecided check.
func TestA4Line(t *testing.T) {
	const ok = "CDQ => CQ^dbl (§A.4): OK  [refinement mapping q = q2 o z-in-flight o q1]"
	hyp := func(name string, holds bool, detail string) ag.HypothesisResult {
		return ag.HypothesisResult{Name: name, Holds: holds, Detail: detail}
	}
	for _, tt := range []struct {
		name    string
		r       ag.Report
		want    string // the whole line for OK and UNKNOWN, a prefix for FAILED
		detail  string
		verdict engine.Verdict
	}{
		{"all hold", ag.Report{Verdict: engine.Holds, Valid: true, Hypotheses: []ag.HypothesisResult{
			hyp("H1[Q1]: C(E) /\\ conj C(Mj) => E_Q1", true, ""),
			hyp(ag.Hyp2bSafety, true, "holds"),
			hyp(ag.Hyp2bLiveness, true, "holds"),
		}}, ok, "", engine.Holds},
		{"another hypothesis fails", ag.Report{Verdict: engine.Violated, Hypotheses: []ag.HypothesisResult{
			hyp("H1[Q1]: C(E) /\\ conj C(Mj) => E_Q1", false, "violated at state 3"),
			hyp(ag.Hyp2bSafety, true, "holds"),
			hyp(ag.Hyp2bLiveness, true, "holds"),
		}}, ok, "", engine.Holds},
		{"liveness fails", ag.Report{Verdict: engine.Violated, Hypotheses: []ag.HypothesisResult{
			hyp(ag.Hyp2bSafety, true, "holds"),
			hyp(ag.Hyp2bLiveness, false, "fair lasso violates WF(Deq)\nloop: s4 -> s5"),
		}}, "CDQ => CQ^dbl (§A.4): FAILED\n  " + ag.Hyp2bLiveness, "fair lasso violates WF(Deq)\n    loop: s4 -> s5", engine.Violated},
		{"unknown", ag.Report{Verdict: engine.Unknown, Unknown: "state budget 10 exceeded"}, "", "", engine.Unknown},
	} {
		t.Run(tt.name, func(t *testing.T) {
			line, v := a4Line(&tt.r)
			if v != tt.verdict {
				t.Errorf("verdict %v, want %v", v, tt.verdict)
			}
			if tt.verdict == engine.Violated {
				if !strings.HasPrefix(line, tt.want) || !strings.Contains(line, tt.detail) {
					t.Errorf("line %q, want prefix %q and detail %q", line, tt.want, tt.detail)
				}
			} else if line != tt.want {
				t.Errorf("line %q, want %q", line, tt.want)
			}
		})
	}
}

// verdictLine and measured copy bench/verdict.go's selection of the lines
// that state a verdict and its stripping of state counts and timings (bench
// is a separate module, so it cannot be imported).
var (
	verdictLine = regexp.MustCompile(`^(\[OK  \]|\[FAIL\]|VALID:|NOT ESTABLISHED|UNKNOWN:|CDQ => CQ\^dbl|formula \(3\) without G:|first failing hypothesis:)`)
	measured    = regexp.MustCompile(`\s*\((\d+ states max|\d[0-9.hmsµ]*)\)$`)
)

// TestVerdictLinesGolden: -n 1 -k 2 exits 0 and prints, in order, the
// verdict lines in testdata/n1k2.verdict, which were taken when §A.4 was
// still checked on a CDQ graph of its own.
func TestVerdictLinesGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "n1k2.verdict"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "1", "-k", "2"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		line = strings.TrimSpace(line)
		if verdictLine.MatchString(line) {
			got = append(got, measured.ReplaceAllString(line, ""))
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("verdict lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestReportBuildsOnlyDecidingGraphs: the -report of -n 1 -k 2 shows each
// graph the run needs built once, and nothing more: CQ, Fig. 9's
// left-hand side (the CDQ system §A.4 is read off) and guarantees-only
// graph, and its +v product; for formula (3), only the left-hand side,
// since H1[Q1] already fails there and stops the check.
func TestReportBuildsOnlyDecidingGraphs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-n", "1", "-k", "2", "-report", path}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	var builds, products []string
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		switch {
		case strings.HasPrefix(s.Name, "build:"):
			builds = append(builds, s.Name)
		case strings.HasPrefix(s.Name, "product:"):
			products = append(products, s.Name)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(rep.Span)
	fig9 := "Fig9[N=1,K=2]: two open queues implement a 3-queue"
	want := []string{
		"build:CQ[N=1,K=2]",
		"build:" + fig9 + "/full-lhs",
		"build:" + fig9 + "/guarantees-only",
		"build:formula (3): composition WITHOUT G/full-lhs",
	}
	if strings.Join(builds, "\n") != strings.Join(want, "\n") {
		t.Errorf("build spans:\n%s\nwant:\n%s", strings.Join(builds, "\n"), strings.Join(want, "\n"))
	}
	if len(products) != 1 || products[0] != "product:"+fig9+"/guarantees-only" {
		t.Errorf("product spans %q, want only Fig. 9's", products)
	}
}
