package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"opentla/internal/obs"
)

func TestUnknownModelListsValidModels(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-model", "nonesuch"}, &out, &errb)
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown model "nonesuch"`) {
		t.Errorf("stderr %q missing the unknown model name", msg)
	}
	for _, name := range modelNames {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr %q missing valid model %q", msg, name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("stdout should be empty, got %q", out.String())
	}
}

func TestBadDimensions(t *testing.T) {
	tests := [][]string{
		{"-model", "queues", "-n", "0"},
		{"-model", "queues", "-k", "1"},
	}
	for _, args := range tests {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr %q)", args, code, errb.String())
		}
	}
}

func TestCircularReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-model", "circular", "-report", path}, &out, &errb)
	if code != 0 {
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
	if rep.SchemaVersion != obs.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", rep.SchemaVersion, obs.SchemaVersion)
	}
	if rep.Tool != "agcheck" || rep.Verdict != "HOLDS" || rep.Config.Model != "circular" {
		t.Errorf("report header = %s/%s/%s, want agcheck/HOLDS/circular",
			rep.Tool, rep.Verdict, rep.Config.Model)
	}
	if len(rep.Hypotheses) == 0 {
		t.Error("report has no hypotheses")
	}
	for _, h := range rep.Hypotheses {
		if !h.Holds {
			t.Errorf("hypothesis %q failed in a HOLDS report", h.Name)
		}
	}
	if rep.Span == nil || rep.Span.Name != "run" {
		t.Fatalf("report span root = %+v, want run", rep.Span)
	}
	// Exploration spans must account for every state the meter counted.
	var sum func(s *obs.Span) int
	sum = func(s *obs.Span) int {
		n := 0
		if strings.HasPrefix(s.Name, "build:") || strings.HasPrefix(s.Name, "product:") {
			n = s.Stats.States
		}
		for _, c := range s.Children {
			n += sum(c)
		}
		return n
	}
	if got := sum(rep.Span); got != rep.Stats.States || got == 0 {
		t.Errorf("exploration spans account for %d states, top-level stats say %d",
			got, rep.Stats.States)
	}
	if len(rep.Events) != 0 {
		t.Errorf("HOLDS report should not carry flight-recorder events, got %d", len(rep.Events))
	}
}

func TestBudgetExhaustedReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-model", "queues", "-n", "1", "-k", "2", "-max-states", "50", "-report", path}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Verdict != "UNKNOWN" {
		t.Errorf("verdict = %q, want UNKNOWN", rep.Verdict)
	}
	if !strings.Contains(rep.UnknownReason, "state budget 50 exceeded") {
		t.Errorf("unknown_reason = %q, want the exhausted state budget", rep.UnknownReason)
	}
	if rep.ExhaustedPhase == "" || !strings.HasPrefix(rep.ExhaustedPhase, "run/") {
		t.Errorf("exhausted_phase = %q, want a span path under run/", rep.ExhaustedPhase)
	}
	if len(rep.Events) == 0 {
		t.Error("UNKNOWN report should carry the flight-recorder tail")
	}
	var sawExhausted bool
	for _, e := range rep.Events {
		if e.Kind == "budget-exhausted" {
			sawExhausted = true
		}
	}
	if !sawExhausted {
		t.Errorf("events missing budget-exhausted entry: %+v", rep.Events)
	}
}

// TestErrorPathsStillWriteReport pins the bugfix for startup failures
// (unknown model, bad dimensions, bad flag combinations, profile setup):
// when -report is requested, these paths must still write a minimal UNKNOWN
// report naming the failure instead of silently skipping the file.
func TestErrorPathsStillWriteReport(t *testing.T) {
	tests := []struct {
		name   string
		args   []string
		reason string
	}{
		{"unknown model", []string{"-model", "nonesuch"}, `unknown model "nonesuch"`},
		{"bad n", []string{"-model", "queues", "-n", "0"}, "capacity N must be >= 1"},
		{"bad k", []string{"-model", "queues", "-k", "1"}, "value-domain size K must be >= 2"},
		{"negative cache bound", []string{"-model", "circular", "-cache-dir", "d", "-cache-max-bytes", "-1"}, "-cache-max-bytes must be >= 0"},
		{"cache bound without dir", []string{"-model", "circular", "-cache-max-bytes", "4096"}, "-cache-max-bytes requires -cache-dir"},
		{"profile start failure", []string{"-model", "circular", "-cpuprofile", "no/such/dir/cpu.prof"}, "cpu"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "report.json")
			var out, errb bytes.Buffer
			code := run(append(tt.args, "-report", path), &out, &errb)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no report written on the error path: %v", err)
			}
			var rep obs.Report
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatalf("report is not valid JSON: %v", err)
			}
			if rep.SchemaVersion != obs.SchemaVersion || rep.Tool != "agcheck" {
				t.Errorf("report header = %d/%s, want %d/agcheck", rep.SchemaVersion, rep.Tool, obs.SchemaVersion)
			}
			if rep.Verdict != "UNKNOWN" {
				t.Errorf("verdict = %q, want UNKNOWN", rep.Verdict)
			}
			if !strings.Contains(rep.UnknownReason, tt.reason) {
				t.Errorf("unknown_reason = %q, want substring %q", rep.UnknownReason, tt.reason)
			}
		})
	}
}

// TestWarmCacheSecondRunSkipsExploration runs the same model twice against
// one cache directory: the second run must report at least one cache hit,
// zero explored states, and the same verdict.
func TestWarmCacheSecondRunSkipsExploration(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	args := func(report string) []string {
		return []string{"-model", "queues", "-n", "1", "-k", "2", "-cache-dir", cacheDir, "-report", report}
	}
	cold := filepath.Join(dir, "cold.json")
	warm := filepath.Join(dir, "warm.json")
	var out, errb bytes.Buffer
	if code := run(args(cold), &out, &errb); code != 0 {
		t.Fatalf("cold run exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	if code := run(args(warm), &out, &errb); code != 0 {
		t.Fatalf("warm run exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	var coldRep, warmRep obs.Report
	for path, rep := range map[string]*obs.Report{cold: &coldRep, warm: &warmRep} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	if coldRep.Cache == nil || coldRep.Cache.Misses == 0 {
		t.Errorf("cold run cache section = %+v, want misses > 0", coldRep.Cache)
	}
	if warmRep.Cache == nil || warmRep.Cache.Hits == 0 {
		t.Fatalf("warm run cache section = %+v, want hits > 0", warmRep.Cache)
	}
	if warmRep.Stats.States != 0 {
		t.Errorf("warm run explored %d states, want 0 (all graphs served from cache)", warmRep.Stats.States)
	}
	if warmRep.Verdict != coldRep.Verdict {
		t.Errorf("warm verdict %q != cold verdict %q", warmRep.Verdict, coldRep.Verdict)
	}
	if len(warmRep.Hypotheses) != len(coldRep.Hypotheses) {
		t.Errorf("warm run has %d hypotheses, cold had %d", len(warmRep.Hypotheses), len(coldRep.Hypotheses))
	}
}

// fig9K2 returns the arguments of a Fig. 9 N=1 K=2 check on cacheDir.
func fig9K2(cacheDir string, extra ...string) []string {
	return append([]string{"-model", "queues", "-n", "1", "-k", "2", "-cache-dir", cacheDir}, extra...)
}

// cacheFiles returns the contents of the files in dir whose names end in
// ext, by name.
func cacheFiles(t *testing.T, dir, ext string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = data
	}
	return files
}

// readCacheStats returns the cache section of the report at path.
func readCacheStats(t *testing.T, path string) obs.CacheStats {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil {
		t.Fatalf("report %s has no cache section", path)
	}
	return *rep.Cache
}

// TestPlainRerunResumes stops a Fig. 9 K=2 check on a state budget, once
// inside the left-hand-side build (-max-states 40) and once inside the +v
// product (-max-states 3300), then reruns it on the same cache with no
// budget and no other flag. The rerun must resume from the checkpoint the
// stopped run saved and leave .snap files byte-identical to a one-shot
// cache's.
func TestPlainRerunResumes(t *testing.T) {
	oneShot := filepath.Join(t.TempDir(), "one-shot")
	var out, errb bytes.Buffer
	if code := run(fig9K2(oneShot), &out, &errb); code != 0 {
		t.Fatalf("one-shot run exit code = %d (stderr %q)", code, errb.String())
	}
	want := cacheFiles(t, oneShot, ".snap")
	if len(want) != 3 {
		t.Fatalf("one-shot cache holds %d snapshots, want Fig. 9's 3", len(want))
	}
	for _, budget := range []string{"40", "3300"} {
		t.Run("max-states "+budget, func(t *testing.T) {
			dir := t.TempDir()
			cacheDir := filepath.Join(dir, "cache")
			var out, errb bytes.Buffer
			if code := run(fig9K2(cacheDir, "-max-states", budget), &out, &errb); code != 2 {
				t.Fatalf("bounded run exit code = %d, want 2 (stderr %q)", code, errb.String())
			}
			if ckpts := cacheFiles(t, cacheDir, ".ckpt"); len(ckpts) != 1 {
				t.Fatalf("bounded run left %d checkpoints, want 1", len(ckpts))
			}
			report := filepath.Join(dir, "rerun.json")
			if code := run(fig9K2(cacheDir, "-report", report), &out, &errb); code != 0 {
				t.Fatalf("rerun exit code = %d, want 0 (stderr %q)", code, errb.String())
			}
			if st := readCacheStats(t, report); st.Resumes < 1 {
				t.Errorf("rerun cache section = %+v, want resumes >= 1", st)
			}
			if ckpts := cacheFiles(t, cacheDir, ".ckpt"); len(ckpts) != 0 {
				t.Errorf("rerun left %d checkpoints, want 0", len(ckpts))
			}
			got := cacheFiles(t, cacheDir, ".snap")
			if len(got) != len(want) {
				t.Errorf("rerun cache holds %d snapshots, one-shot %d", len(got), len(want))
			}
			for name, data := range want {
				if !bytes.Equal(got[name], data) {
					t.Errorf("%s differs from the one-shot cache's", name)
				}
			}
		})
	}
}

// TestStaleCheckpointIsNotResumed puts a valid checkpoint beside the
// complete entry of the same key, as a crash between a store's rename and
// its checkpoint removal leaves it. The complete entry wins: the run hits
// all three graphs, resumes nothing, and never loads the checkpoint (a load
// would touch its modification time).
func TestStaleCheckpointIsNotResumed(t *testing.T) {
	dir := t.TempDir()
	full, stopped := filepath.Join(dir, "full"), filepath.Join(dir, "stopped")
	var out, errb bytes.Buffer
	if code := run(fig9K2(full), &out, &errb); code != 0 {
		t.Fatalf("filling run exit code = %d (stderr %q)", code, errb.String())
	}
	if code := run(fig9K2(stopped, "-max-states", "40"), &out, &errb); code != 2 {
		t.Fatalf("bounded run exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	ckpts := cacheFiles(t, stopped, ".ckpt")
	if len(ckpts) != 1 {
		t.Fatalf("bounded run left %d checkpoints, want 1", len(ckpts))
	}
	var ckpt string
	for name, data := range ckpts {
		ckpt = filepath.Join(full, name)
		if _, err := os.Stat(strings.TrimSuffix(ckpt, ".ckpt") + ".snap"); err != nil {
			t.Fatalf("checkpoint %s has no complete entry beside it: %v", name, err)
		}
		if err := os.WriteFile(ckpt, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := os.Chtimes(ckpt, old, old); err != nil {
		t.Fatal(err)
	}

	report := filepath.Join(dir, "r.json")
	if code := run(fig9K2(full, "-report", report), &out, &errb); code != 0 {
		t.Fatalf("run exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	if st := readCacheStats(t, report); st.Hits != 3 || st.Misses != 0 || st.Resumes != 0 {
		t.Errorf("cache section = %+v, want 3 hits, 0 misses, 0 resumes", st)
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		t.Fatalf("stale checkpoint gone: %v", err)
	}
	if !fi.ModTime().Equal(old) {
		t.Errorf("stale checkpoint was loaded: modified %v", fi.ModTime())
	}
}

func TestProgressFlagWritesToStderr(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-model", "queues", "-n", "1", "-k", "2", "-progress", "-progress-interval", "1ms"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "progress: ") {
		t.Errorf("stderr %q missing progress lines", errb.String())
	}
	if strings.Contains(out.String(), "progress: ") {
		t.Error("progress lines leaked to stdout")
	}
}

// TestProgressIntervalValidation: a non-positive -progress-interval would
// wedge (0) or spin (negative) the progress ticker, so both are usage errors
// regardless of whether -progress is on; any positive period is accepted.
func TestProgressIntervalValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"zero", []string{"-model", "circular", "-progress", "-progress-interval", "0"}, 2},
		{"negative", []string{"-model", "circular", "-progress", "-progress-interval", "-1s"}, 2},
		{"zero without -progress", []string{"-model", "circular", "-progress-interval", "0s"}, 2},
		{"positive", []string{"-model", "circular", "-progress", "-progress-interval", "50ms"}, 0},
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

// TestTraceAndMetricsOutputs: one traced run writes both telemetry artifacts —
// a Chrome-trace JSON with per-worker thread_name rows and a Prometheus text
// exposition carrying HELP/TYPE headers for the opentla metric families.
func TestTraceAndMetricsOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	promPath := filepath.Join(dir, "metrics.prom")
	var out, errb bytes.Buffer
	code := run([]string{"-model", "queues", "-n", "1", "-k", "2", "-workers", "2",
		"-trace", tracePath, "-metrics-out", promPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr %q)", code, errb.String())
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("no trace written: %v", err)
	}
	var wire struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	for _, e := range wire.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			var args struct {
				Name string `json:"name"`
			}
			json.Unmarshal(e.Args, &args)
			tracks[args.Name] = true
		}
	}
	for _, want := range []string{"worker 0", "worker 1", "barrier"} {
		if !tracks[want] {
			t.Errorf("trace missing track %q (have %v)", want, tracks)
		}
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatalf("no metrics exposition written: %v", err)
	}
	text := string(prom)
	for _, want := range []string{"# HELP ", "# TYPE ", "opentla_levels_total", "opentla_barrier_wait_nanoseconds"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestVetStrictMutantExits2 pins the pre-check contract: planting an
// ill-formed-spec mutant and running with -vet strict must refuse the
// check (exit 2) and write an UNKNOWN report whose vet section carries
// the cross-component-write diagnostic.
func TestVetStrictMutantExits2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-model", "queues", "-n", "1", "-k", "2",
		"-mutate", "vet-unowned-write", "-vet", "strict", "-report", path}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "SV003") || !strings.Contains(errb.String(), "refusing to check") {
		t.Errorf("stderr %q missing the vet rejection", errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Verdict != "UNKNOWN" {
		t.Errorf("verdict = %q, want UNKNOWN", rep.Verdict)
	}
	if rep.Vet == nil {
		t.Fatal("report has no vet section")
	}
	if rep.Vet.Mode != "strict" || rep.Vet.Errors < 1 {
		t.Errorf("vet section = mode %q, %d errors; want strict with >= 1 error", rep.Vet.Mode, rep.Vet.Errors)
	}
	found := false
	for _, d := range rep.Vet.Diagnostics {
		if d.Code == "SV003" {
			found = true
		}
	}
	if !found {
		t.Errorf("vet diagnostics missing SV003: %+v", rep.Vet.Diagnostics)
	}
}

// TestVetWarnModeStillChecks runs a clean model in the default warn mode:
// the check proceeds, succeeds, and the report carries a warn-mode vet
// section with zero errors.
func TestVetWarnModeStillChecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-model", "circular", "-report", path}, &out, &errb)
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
		t.Fatal("HOLDS report has no vet section (default -vet=warn should attach one)")
	}
	if rep.Vet.Mode != "warn" || rep.Vet.Errors != 0 {
		t.Errorf("vet section = mode %q, %d errors; want warn with 0 errors", rep.Vet.Mode, rep.Vet.Errors)
	}
}

// TestVetOffSkipsSection confirms -vet=off runs no analysis: the report
// has no vet section at all.
func TestVetOffSkipsSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-model", "circular", "-vet", "off", "-report", path}, &out, &errb)
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
	if rep.Vet != nil {
		t.Errorf("-vet=off report still has a vet section: %+v", rep.Vet)
	}
}

func TestVetUsageErrors(t *testing.T) {
	tests := []struct {
		name   string
		args   []string
		reason string
	}{
		{"bad vet mode", []string{"-model", "circular", "-vet", "bogus"}, `invalid vet mode "bogus"`},
		{"unknown mutation", []string{"-model", "queues", "-mutate", "nonesuch"}, `unknown vet mutation "nonesuch"`},
		{"mutate on refinement", []string{"-model", "corollary", "-mutate", "vet-unowned-write"}, `mutation vet-unowned-write: theorem fused-double-queue[N=1,K=2] refines 3-queue (Corollary) has no pair "Q1"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tt.args, &out, &errb); code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tt.reason) {
				t.Errorf("stderr %q missing %q", errb.String(), tt.reason)
			}
		})
	}
}

// TestMutateFailsFast: a -mutate the model cannot take is refused while
// resolving the model, before the run opens the cache or starts anything:
// exit 2 with the mutation's error, and no -cache-dir is created.
func TestMutateFailsFast(t *testing.T) {
	tests := []struct {
		model, mutation, reason string
	}{
		{"circular", "vet-unowned-write", `mutation vet-unowned-write: theorem circular-safety (§1 example 1) has no pair "Q1"`},
		{"arbiter", "vet-unowned-write", `has no pair "Q1"`},
		{"queues-no-g", "vet-missing-disjoint", `mutation vet-missing-disjoint: theorem Fig9[N=1,K=2]: two open queues implement a 3-queue WITHOUT G (expected to fail, §A.5 formula (3)) has no pair "G"`},
	}
	for _, tt := range tests {
		t.Run(tt.model+"/"+tt.mutation, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cache")
			var out, errb bytes.Buffer
			code := run([]string{"-model", tt.model, "-mutate", tt.mutation, "-cache-dir", dir}, &out, &errb)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tt.reason) {
				t.Errorf("stderr %q missing %q", errb.String(), tt.reason)
			}
			if out.Len() != 0 {
				t.Errorf("stdout %q, want nothing checked", out.String())
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("-cache-dir %s was created (stat err %v)", dir, err)
			}
		})
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
		{"zero workers", []string{"-model", "circular", "-workers", "0"}, "-workers must be >= 1"},
		{"negative workers", []string{"-model", "circular", "-workers", "-1"}, "-workers must be >= 1"},
		{"very negative workers", []string{"-model", "circular", "-workers", "-100000"}, "-workers must be >= 1"},
		{"absurd workers", []string{"-model", "circular", "-workers", "1000000"}, "exceeds the maximum"},
		{"bad reduce mode", []string{"-model", "circular", "-reduce", "magic"}, `invalid -reduce mode "magic"`},
		{"removed por mode", []string{"-model", "circular", "-reduce", "por"}, "want off|sym"},
		{"removed por,sym mode", []string{"-model", "queues", "-reduce", "por,sym"}, "want off|sym"},
		{"reduce on corollary", []string{"-model", "corollary", "-reduce", "sym"}, "not supported for the corollary model: it declares no symmetry group"},
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

// TestReduceFlagStillValidates: -reduce sym decides the same verdict as
// -reduce off. The arbiter and circular models declare no symmetry group,
// so sym checks them unreduced and prints the off hypothesis lines,
// run-stats counts and exit code.
func TestReduceFlagStillValidates(t *testing.T) {
	// timeless drops the elapsed time, the one part of the output that may
	// differ between runs.
	timeless := func(out string) string {
		lines := strings.Split(out, "\n")
		for i, l := range lines {
			if j := strings.Index(l, ", elapsed "); j >= 0 && strings.HasPrefix(l, "run stats:") {
				lines[i] = l[:j]
			}
		}
		return strings.Join(lines, "\n")
	}
	for _, model := range []string{"arbiter", "circular"} {
		var outs []string
		for _, mode := range []string{"off", "sym"} {
			var out, errb bytes.Buffer
			args := []string{"-model", model, "-reduce", mode, "-workers", "1"}
			if code := run(args, &out, &errb); code != 0 {
				t.Errorf("run(%v) = %d, want 0 (stderr %q)", args, code, errb.String())
			}
			if !strings.Contains(out.String(), "VALID") || !strings.Contains(out.String(), "run stats: ") {
				t.Errorf("%v: stdout missing the VALID verdict or run stats:\n%s", args, out.String())
			}
			outs = append(outs, timeless(out.String()))
		}
		if outs[0] != outs[1] {
			t.Errorf("%s: output differs:\n-reduce off:\n%s\n-reduce sym:\n%s", model, outs[0], outs[1])
		}
	}
}

// parseOutputs checks that the report, trace and metrics files a run was
// asked for exist and parse: the report and trace as JSON, the metrics as
// Prometheus text (comments and `name[{labels}] value` samples). A path of
// "" is skipped.
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
		{"vet strict refusal", []string{"-model", "queues", "-n", "1", "-k", "2", "-vet", "strict", "-max-states", "10"}, false},
		{"startup failure", []string{"-model", "queues", "-n", "1", "-k", "1"}, false},
		{"budget exhausted", []string{"-model", "queues", "-n", "1", "-k", "2", "-max-states", "50"}, false},
		{"report write failure", []string{"-model", "circular"}, true},
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

// verdictLine and measured copy bench/verdict.go's selection of the lines
// that state a verdict and its stripping of state counts and timings (bench
// is a separate module, so it cannot be imported).
var (
	verdictLine = regexp.MustCompile(`^(\[OK  \]|\[FAIL\]|VALID:|NOT ESTABLISHED|UNKNOWN:)`)
	measured    = regexp.MustCompile(`\s*\((\d+ states max|\d[0-9.hmsµ]*)\)$`)
)

// TestQueuesNoGListsEveryHypothesis: agcheck checks a refuted theorem in
// full, so -model queues-no-g -k 2 exits 1 and lists all nine hypotheses
// for diagnosis, as in testdata/queues-no-g.k2.verdict (only queueverify's
// formula (3) check stops at the first failure).
func TestQueuesNoGListsEveryHypothesis(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "queues-no-g.k2.verdict"))
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
	if code := run([]string{"-model", "queues-no-g", "-k", "2"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr %q)", code, errb.String())
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

// TestUnknownKeepsDecidedHypotheses: a state budget that runs out in the
// guarantees-only build, after the LHS graph has decided (1), 2a(i) and
// both halves of (2b), still reports every one of them, in report order,
// before the UNKNOWN verdict, on stdout and in the -report hypotheses.
func TestUnknownKeepsDecidedHypotheses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-model", "queues", "-n", "1", "-k", "3", "-workers", "1", "-max-states", "5000",
		"-report", path}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr %q)", code, errb.String())
	}
	var lines []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "[") || strings.HasPrefix(line, "UNKNOWN") {
			lines = append(lines, strings.TrimSpace(line))
		}
	}
	want := []string{
		"[OK  ] H1[G]: C(E) /\\ conj C(Mj) => TRUE",
		"[OK  ] H1[Q1]: C(E) /\\ conj C(Mj) => E_Q1",
		"[OK  ] H1[Q2]: C(E) /\\ conj C(Mj) => E_Q2",
		"[OK  ] H2a-A(i): C(E) /\\ conj C(Mj) => C(M)",
		"[OK  ] H2b: E /\\ conj Mj => M  (safety)",
		"[OK  ] H2b: E /\\ conj Mj => M  (liveness)",
		"UNKNOWN: state budget 5000 exceeded",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("stdout entries:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	var h2b int
	for _, h := range rep.Hypotheses {
		if strings.HasPrefix(h.Name, "H2b: ") && h.Holds {
			h2b++
		}
	}
	if rep.Verdict != "UNKNOWN" || h2b != 2 || len(rep.Hypotheses) != len(want)-1 {
		t.Errorf("report verdict %s with %d hypotheses, %d holding H2b entries; want UNKNOWN, %d and 2",
			rep.Verdict, len(rep.Hypotheses), h2b, len(want)-1)
	}
}
