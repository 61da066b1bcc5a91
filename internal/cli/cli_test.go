package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opentla/internal/absint"
	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/vet"
)

// stub runs the lifecycle on args with analyze as the vet pre-check and a
// check body that returns out and err without exploring anything. It
// returns the exit code, stderr, and whether the body ran.
func stub(args []string, analyze func() (*vet.Result, error), out Outcome, err error) (code int, stderr string, ran bool) {
	var errb bytes.Buffer
	r := New("stub", &errb)
	r.Conf.Model = "stub-model"
	if !r.Parse(args) {
		return 2, errb.String(), false
	}
	code = r.Check(analyze, func(*engine.Meter) (Outcome, error) {
		ran = true
		return out, err
	})
	return code, errb.String(), ran
}

func readReport(t *testing.T, path string) *obs.Report {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no report: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	return &rep
}

// TestUsageErrorsWriteUnknownReport: every shared usage or start-up error
// exits 2 before the check runs, says why on stderr under the command's
// prefix, and writes a report with the UNKNOWN verdict and that reason.
func TestUsageErrorsWriteUnknownReport(t *testing.T) {
	for _, tt := range []struct {
		name, reason string
		args         []string
	}{
		{"positional", "unexpected positional arguments: [extra]", []string{"extra"}},
		{"progress interval", "-progress-interval must be positive", []string{"-progress-interval", "0"}},
		{"bad n", "queue capacity N must be >= 1, got 0", []string{"-N", "0"}},
		{"bad k", "value-domain size K must be >= 2, got 1", []string{"-k", "1"}},
		{"bad workers", "-workers must be >= 1", []string{"-workers", "0"}},
		{"bad reduce", "bogus", []string{"-reduce", "bogus"}},
		{"cache bound without dir", "-cache-max-bytes requires -cache-dir", []string{"-cache-max-bytes", "10"}},
		{"bad vet mode", "bogus", []string{"-vet", "bogus"}},
		{"profile start", "cpu", []string{"-cpuprofile", filepath.Join("no", "such", "dir", "cpu.prof")}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "r.json")
			code, stderr, ran := stub(append([]string{"-report", path}, tt.args...), nil, Outcome{Verdict: engine.Holds}, nil)
			if code != 2 || ran {
				t.Fatalf("exit %d, body ran %v; want 2 before the check (stderr %q)", code, ran, stderr)
			}
			if !strings.HasPrefix(stderr, "stub: ") || !strings.Contains(stderr, tt.reason) {
				t.Errorf("stderr %q, want %q under the stub: prefix", stderr, tt.reason)
			}
			rep := readReport(t, path)
			if rep.Tool != "stub" || rep.Verdict != "UNKNOWN" || !strings.Contains(rep.UnknownReason, tt.reason) {
				t.Errorf("report %s/%s/%q, want stub/UNKNOWN with %q", rep.Tool, rep.Verdict, rep.UnknownReason, tt.reason)
			}
			if rep.Config.Model != "stub-model" {
				t.Errorf("report model %q, want stub-model", rep.Config.Model)
			}
		})
	}
}

// TestBadFlagExitsTwo: a flag the set does not know is a usage error the
// flag package reports.
func TestBadFlagExitsTwo(t *testing.T) {
	code, stderr, ran := stub([]string{"-nonesuch"}, nil, Outcome{Verdict: engine.Holds}, nil)
	if code != 2 || ran || !strings.Contains(stderr, "flag provided but not defined: -nonesuch") {
		t.Errorf("exit %d, body ran %v, stderr %q", code, ran, stderr)
	}
}

// TestStrictVetRefusalWritesEveryOutput: a strict-mode refusal, on vet
// errors or on a bound over -max-states (SV140), skips the check, exits 2
// and writes the report with its vet section, the trace and the metrics.
func TestStrictVetRefusalWritesEveryOutput(t *testing.T) {
	for _, tt := range []struct {
		name, reason, code string
		res                *vet.Result
	}{
		{"errors", "vet found 1 errors in strict mode", "SV003",
			&vet.Result{Diagnostics: []vet.Diagnostic{{Code: "SV003", Severity: vet.Error, Message: "planted"}}}},
		{"bound over budget", "vet: state-space bound ≤ 100 states exceeds -max-states 10", "SV140",
			&vet.Result{Bound: &absint.Bound{Finite: true, States: 100}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			report, trace, prom := filepath.Join(dir, "r.json"), filepath.Join(dir, "t.json"), filepath.Join(dir, "m.prom")
			args := []string{"-vet", "strict", "-max-states", "10", "-report", report, "-trace", trace, "-metrics-out", prom}
			analyze := func() (*vet.Result, error) { return tt.res, nil }
			code, stderr, ran := stub(args, analyze, Outcome{Verdict: engine.Holds}, nil)
			if code != 2 || ran {
				t.Fatalf("exit %d, body ran %v; want a refusal (stderr %q)", code, ran, stderr)
			}
			if !strings.Contains(stderr, "stub: vet: "+tt.code) || !strings.Contains(stderr, "stub: "+tt.reason) {
				t.Errorf("stderr %q missing the %s finding or the refusal", stderr, tt.code)
			}
			rep := readReport(t, report)
			if rep.Verdict != "UNKNOWN" || !strings.Contains(rep.UnknownReason, tt.reason) {
				t.Errorf("report %s/%q, want UNKNOWN with %q", rep.Verdict, rep.UnknownReason, tt.reason)
			}
			if rep.Vet == nil || rep.Vet.Mode != "strict" || len(rep.Vet.Diagnostics) != 1 || rep.Vet.Diagnostics[0].Code != tt.code {
				t.Errorf("vet section %+v, want strict mode with the one %s finding", rep.Vet, tt.code)
			}
			for _, p := range []string{trace, prom} {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Errorf("%s missing or empty (err %v)", p, err)
				}
			}
		})
	}
}

// TestVetWarnAndOff: warn mode prints findings and checks; off, or a nil
// pre-check, runs no analysis and leaves the vet section out.
func TestVetWarnAndOff(t *testing.T) {
	res := func() (*vet.Result, error) {
		return &vet.Result{Diagnostics: []vet.Diagnostic{{Code: "SV003", Severity: vet.Error, Message: "planted"}}}, nil
	}
	for _, tt := range []struct {
		name    string
		mode    string
		analyze func() (*vet.Result, error)
		section bool
	}{
		{"warn", "warn", res, true},
		{"off", "off", res, false},
		{"nil pre-check", "strict", nil, false},
	} {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "r.json")
			code, stderr, ran := stub([]string{"-vet", tt.mode, "-report", path}, tt.analyze, Outcome{Verdict: engine.Holds}, nil)
			if code != 0 || !ran {
				t.Fatalf("exit %d, body ran %v; want 0 after the check (stderr %q)", code, ran, stderr)
			}
			if got := strings.Contains(stderr, "stub: vet: SV003"); got != tt.section {
				t.Errorf("stderr %q: finding printed %v, want %v", stderr, got, tt.section)
			}
			if got := readReport(t, path).Vet != nil; got != tt.section {
				t.Errorf("vet section present %v, want %v", got, tt.section)
			}
		})
	}
}

// TestExitCodesFollowTheOutcome: the exit code is the body's verdict's; a
// body error or a failed report write exits 2.
func TestExitCodesFollowTheOutcome(t *testing.T) {
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "r.json"), filepath.Join(dir, "missing", "r.json")
	for _, tt := range []struct {
		name, report, stderr string
		out                  Outcome
		err                  error
		code                 int
	}{
		{"holds", good, "", Outcome{Verdict: engine.Holds}, nil, 0},
		{"violated", good, "", Outcome{Verdict: engine.Violated}, nil, 1},
		{"unknown", good, "", Outcome{Verdict: engine.Unknown, Unknown: "budget"}, nil, 2},
		{"body error", good, "stub: boom", Outcome{Verdict: engine.Holds}, errors.New("boom"), 2},
		{"report write fails", bad, "stub: writing run report", Outcome{Verdict: engine.Holds}, nil, 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			code, stderr, _ := stub([]string{"-report", tt.report}, nil, tt.out, tt.err)
			if code != tt.code || !strings.Contains(stderr, tt.stderr) {
				t.Errorf("exit %d, stderr %q; want %d and %q", code, stderr, tt.code, tt.stderr)
			}
			if tt.report == bad {
				return
			}
			rep := readReport(t, tt.report)
			if want := map[int]string{0: "HOLDS", 1: "VIOLATED", 2: "UNKNOWN"}[tt.code]; rep.Verdict != want {
				t.Errorf("report verdict %s, want %s", rep.Verdict, want)
			}
			if tt.err != nil && rep.UnknownReason != tt.err.Error() {
				t.Errorf("unknown_reason %q, want the body's error", rep.UnknownReason)
			}
		})
	}
}
