package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"opentla/internal/circular"
	"opentla/internal/engine"
	"opentla/internal/models"
	"opentla/internal/obs"
)

// syntheticTrace is a hand-built capture with round numbers so every
// percentage in the output is exact:
//
//	worker 0: expand [0,80) with 20µs canon, wait [80,100)
//	worker 1: expand [0,100), wait [100,100)
//	barrier:  commit [100,110)
//	cache:    load [110,120)
//
// wall 120µs; succgen (80−20+100)/2 = 80, reduction 10, barrier 10+10 = 20,
// cache 10 — attribution sums to exactly 100%.
const syntheticTrace = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"opentla"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"worker 0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"worker 1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"ts":0,"args":{"name":"barrier"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"ts":0,"args":{"name":"cache"}},
{"name":"expand","cat":"explore","ph":"X","pid":1,"tid":0,"ts":0,"dur":80,"args":{"level":0,"states":4,"succs":12,"canon_ns":20000}},
{"name":"barrier-wait","cat":"explore","ph":"X","pid":1,"tid":0,"ts":80,"dur":20,"args":{"level":0}},
{"name":"expand","cat":"explore","ph":"X","pid":1,"tid":1,"ts":0,"dur":100,"args":{"level":0,"states":5,"succs":15,"canon_ns":0}},
{"name":"barrier-wait","cat":"explore","ph":"X","pid":1,"tid":1,"ts":100,"dur":0,"args":{"level":0}},
{"name":"commit","cat":"explore","ph":"X","pid":1,"tid":2,"ts":100,"dur":10,"args":{"level":0}},
{"name":"load","cat":"cache","ph":"X","pid":1,"tid":3,"ts":110,"dur":10}
]}`

const syntheticReport = `{"schema_version":6,"metrics":[
{"name":"opentla_store_lock_acquisitions_total","type":"counter","value":1000},
{"name":"opentla_store_lock_contended_total","type":"counter","value":30},
{"name":"opentla_store_lock_contended_total","labels":"shard=\"3\"","type":"counter","value":20},
{"name":"opentla_store_lock_contended_total","labels":"shard=\"7\"","type":"counter","value":10},
{"name":"opentla_store_collision_probes_total","type":"counter","value":5},
{"name":"opentla_cache_hits_total","type":"counter","value":1}
]}`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSyntheticAttribution(t *testing.T) {
	tracePath := writeTemp(t, "trace.json", syntheticTrace)
	reportPath := writeTemp(t, "report.json", syntheticReport)
	var out, errb bytes.Buffer
	if code := run([]string{"-trace", tracePath, "-report", reportPath}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	wants := []string{
		"agprof: 2 workers, 1 explorations, 1 levels, wall 0.12ms",
		"1. successor generation",
		"66.7%",
		"attributed: 100.0% of wall",
		"store locks: 1000 acquisitions, 30 contended (3.0%), 5 collision probes",
		`hot shards:  shard="3", shard="7"`,
		"graph cache: 1 hits, 0 misses",
	}
	for _, want := range wants {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The ranked list must be ordered by wall share: succgen > barrier >
	// reduction >= cache on this capture.
	rank := regexp.MustCompile(`(?m)^  \d\. (\S+)`).FindAllStringSubmatch(got, -1)
	if len(rank) != 4 || rank[0][1] != "successor" || rank[1][1] != "barrier" {
		t.Errorf("ranking wrong: %v\n%s", rank, got)
	}
}

// TestMaxCommitGate: the synthetic capture's serial seal is 10µs of a 120µs
// wall (8.3%), so a 10% gate passes and a 5% gate fails with exit 1.
func TestMaxCommitGate(t *testing.T) {
	tracePath := writeTemp(t, "trace.json", syntheticTrace)
	var out, errb bytes.Buffer
	if code := run([]string{"-trace", tracePath, "-max-commit-pct", "10"}, &out, &errb); code != 0 {
		t.Fatalf("8.3%% under a 10%% gate must pass, got exit %d, stderr: %s", code, errb.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-trace", tracePath, "-max-commit-pct", "5"}, &out, &errb); code != 1 {
		t.Fatalf("8.3%% over a 5%% gate must exit 1, got %d", code)
	}
	if !strings.Contains(errb.String(), "exceeds -max-commit-pct") {
		t.Errorf("gate failure not explained: %s", errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("missing -trace must exit 2, got %d", code)
	}
	if code := run([]string{"-trace", "/nonexistent/t.json"}, &out, &errb); code != 2 {
		t.Fatalf("unreadable trace must exit 2, got %d", code)
	}
	empty := writeTemp(t, "empty.json", `{"traceEvents":[]}`)
	if code := run([]string{"-trace", empty}, &out, &errb); code != 2 {
		t.Fatalf("trace without slices must exit 2, got %d", code)
	}
}

// TestTraceWithoutWorkers: a warm-cache run explores nothing, so its trace
// has phase and cache slices but no worker tracks; agprof still profiles it.
func TestTraceWithoutWorkers(t *testing.T) {
	warm := writeTemp(t, "warm.json", `{"traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"cache"}},
{"name":"load","cat":"cache","ph":"X","pid":1,"tid":0,"ts":0,"dur":10}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-trace", warm}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "agprof: 0 workers, 0 explorations") || !strings.Contains(out.String(), "1. cache") {
		t.Errorf("warm trace profile wrong:\n%s", out.String())
	}
}

// writeRun writes a recorder's trace and report into dir and returns
// their paths.
func writeRun(t *testing.T, rec *obs.Recorder, workers int) (tracePath, reportPath string) {
	t.Helper()
	dir := t.TempDir()
	tracePath = filepath.Join(dir, "trace.json")
	reportPath = filepath.Join(dir, "report.json")
	f := &obs.Flags{Trace: tracePath, Report: reportPath}
	if err := f.Write(rec, rec.Finish("test", obs.Config{Workers: workers}, engine.Holds, "")); err != nil {
		t.Fatal(err)
	}
	return tracePath, reportPath
}

// TestEndToEnd runs agprof over a real 4-worker traced build of a bundled
// model: every configured worker shows up, and the four buckets account for
// the bulk of the measured wall (the acceptance bar for the analyzer).
func TestEndToEnd(t *testing.T) {
	m := engine.NoLimit()
	rec := obs.New(m)
	rec.EnableTelemetry()

	model, err := models.ByName("doublequeue")
	if err != nil {
		t.Fatal(err)
	}
	sys := model.System()
	sys.Workers = 4
	if _, err := sys.BuildWith(m); err != nil {
		t.Fatal(err)
	}
	tracePath, reportPath := writeRun(t, rec, 4)

	var out, errb bytes.Buffer
	if code := run([]string{"-trace", tracePath, "-report", reportPath}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got := out.String()
	if !strings.Contains(got, "agprof: 4 workers") {
		t.Errorf("want 4 worker tracks:\n%s", got)
	}
	for _, want := range []string{"worker 0", "worker 3", "successor generation", "barrier", "attributed:", "build:" + sys.Name} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// Attribution should explain most of the wall; allow slack for loop
	// overhead on a tiny model but fail on gross undercounting.
	mAttr := regexp.MustCompile(`attributed: ([0-9.]+)% of wall`).FindStringSubmatch(got)
	if mAttr == nil {
		t.Fatalf("no attribution line:\n%s", got)
	}
	share, err := strconv.ParseFloat(mAttr[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if share < 80 || share > 120 {
		t.Errorf("attributed share %.1f%% implausible:\n%s", share, got)
	}

	// A Composition Theorem check builds three graphs — the left-hand
	// side, the guarantees-only graph, and its monitor product — and the
	// per-graph table names each one with its states.
	m = engine.NoLimit()
	rec = obs.New(m)
	rec.EnableTelemetry()
	th := circular.SafetyTheorem()
	th.Workers = 2
	if _, err := th.CheckWith(m); err != nil {
		t.Fatal(err)
	}
	tracePath, _ = writeRun(t, rec, 2)
	out.Reset()
	if code := run([]string{"-trace", tracePath}, &out, &errb); code != 0 {
		t.Fatalf("theorem trace: exit %d, stderr: %s", code, errb.String())
	}
	rows := regexp.MustCompile(`(?m)^  ((?:build|product):\S.*?)\s+(\d+)\s+[0-9.]+ [0-9.]+ms$`).FindAllStringSubmatch(out.String(), -1)
	if len(rows) != 3 {
		t.Fatalf("want 3 named graph rows, got %d:\n%s", len(rows), out.String())
	}
	for _, suffix := range []string{"/full-lhs", "/guarantees-only", "/guarantees-only"} {
		found := false
		for _, r := range rows {
			if strings.HasSuffix(r[1], suffix) && r[2] != "0" {
				found = true
			}
		}
		if !found {
			t.Errorf("no row for a graph ending %q with states:\n%s", suffix, out.String())
		}
	}
	if !strings.HasPrefix(rows[2][1], "product:") {
		t.Errorf("third graph should be the monitor product:\n%s", out.String())
	}
}
