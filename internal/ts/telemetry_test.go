package ts

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/reduce"
)

// telemetryMeter returns a meter whose recorder has telemetry on, the way
// the CLIs wire -trace / -metrics-out.
func telemetryMeter() (*engine.Meter, *obs.Recorder) {
	m := engine.NoLimit()
	rec := obs.New(m)
	rec.EnableTelemetry()
	return m, rec
}

// decodeTrace parses the Chrome Trace Event JSON a recorder renders.
func decodeTrace(t *testing.T, rec *obs.Recorder) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var wire struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return wire.TraceEvents
}

func snapshotValue(rec *obs.Recorder, name string) (int64, bool) {
	for _, p := range rec.Points() {
		if p.Name == name && p.Labels == "" {
			if p.Type == "histogram" {
				return p.Count, true
			}
			return p.Value, true
		}
	}
	return 0, false
}

// TestBuildEmitsWorkerTracks pins the tentpole trace contract: a 4-worker
// build of a frontier wide enough for every worker produces one named track
// per worker that did work (idle workers' tracks are suppressed at write
// time), a barrier track, per-level "expand" slices carrying state tallies,
// "commit" slices for both the serial seal and the parallel commit phases,
// and the exploration metrics — without perturbing the graph.
func TestBuildEmitsWorkerTracks(t *testing.T) {
	const workers = 4
	m, rec := telemetryMeter()
	sys := pairSystem(4)
	sys.Workers = workers
	g, err := sys.BuildWith(m)
	if err != nil {
		t.Fatal(err)
	}

	plain := pairSystem(4)
	plain.Workers = workers
	gp, err := plain.Build()
	if err != nil {
		t.Fatal(err)
	}
	if signature(g) != signature(gp) {
		t.Fatalf("telemetry changed the built graph")
	}

	events := decodeTrace(t, rec)
	threads := map[string]bool{}
	tids := map[string]float64{}
	var expandSlices, waitSlices, commitSlices int
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "thread_name" {
			name := e["args"].(map[string]any)["name"].(string)
			threads[name] = true
			tids[name], _ = e["tid"].(float64)
		}
		switch e["name"] {
		case "expand":
			expandSlices++
			args := e["args"].(map[string]any)
			for _, k := range []string{"level", "states", "succs", "canon_ns"} {
				if _, ok := args[k]; !ok {
					t.Errorf("expand slice missing arg %q: %v", k, args)
				}
			}
		case "barrier-wait":
			waitSlices++
		case "commit":
			commitSlices++
		}
	}
	seen := map[float64]bool{}
	for wid := 0; wid < workers; wid++ {
		name := "worker " + string(rune('0'+wid))
		if !threads[name] {
			t.Errorf("missing track %q (have %v)", name, threads)
			continue
		}
		if seen[tids[name]] {
			t.Errorf("track %q shares tid %v with another track", name, tids[name])
		}
		seen[tids[name]] = true
	}
	if !threads["barrier"] {
		t.Errorf("missing barrier track")
	}
	if expandSlices == 0 || waitSlices == 0 || commitSlices == 0 {
		t.Errorf("want expand/barrier-wait/commit slices, got %d/%d/%d",
			expandSlices, waitSlices, commitSlices)
	}

	// The exploration metrics must be registered and consistent.
	if v, ok := snapshotValue(rec, "opentla_levels_total"); !ok || v == 0 {
		t.Errorf("opentla_levels_total = %d, %v", v, ok)
	}
	if v, ok := snapshotValue(rec, "opentla_barrier_wait_nanoseconds"); !ok || v == 0 {
		t.Errorf("opentla_barrier_wait_nanoseconds count = %d, %v", v, ok)
	}
	if v, ok := snapshotValue(rec, "opentla_workers"); !ok || v != workers {
		t.Errorf("opentla_workers = %d, want %d", v, workers)
	}
	if v, ok := snapshotValue(rec, "opentla_store_lock_acquisitions_total"); !ok || v == 0 {
		t.Errorf("store lock acquisitions = %d, %v (store metrics not attached?)", v, ok)
	}
	if v, ok := snapshotValue(rec, "opentla_barrier_parallel_commit_nanoseconds_total"); !ok || v == 0 {
		t.Errorf("opentla_barrier_parallel_commit_nanoseconds_total = %d, %v", v, ok)
	}
}

// TestBuildMetricsOnlyNeedsNoTracer checks the -metrics-out-without--trace
// path: the one telemetry bit fills in the counters.
func TestBuildMetricsOnlyNeedsNoTracer(t *testing.T) {
	m, rec := telemetryMeter()
	sys := pairSystem(3)
	sys.Workers = 2
	if _, err := sys.BuildWith(m); err != nil {
		t.Fatal(err)
	}
	if v, ok := snapshotValue(rec, "opentla_worker_busy_nanoseconds_total"); !ok || v == 0 {
		t.Errorf("worker busy time = %d, %v", v, ok)
	}
	if v, ok := snapshotValue(rec, "opentla_levels_total"); !ok || v == 0 {
		t.Errorf("levels = %d, %v", v, ok)
	}
}

// TestReductionMetricsExported checks that a symmetry-reduced build lands
// its expansion and collapse counters in the telemetry (the reduce
// instrumentation seam), equal to the report's reduction section.
func TestReductionMetricsExported(t *testing.T) {
	m, rec := telemetryMeter()
	sys := pairSystem(4)
	sys.Workers = 2
	sys.Reduce = &reduce.Config{Options: reduce.Options{Sym: true},
		Symmetry: &reduce.Symmetry{Blocks: [][]string{{"x"}, {"y"}}}}
	if _, err := sys.BuildWith(m); err != nil {
		t.Fatal(err)
	}
	full, okF := snapshotValue(rec, "opentla_reduce_full_states_total")
	collapsed, okC := snapshotValue(rec, "opentla_reduce_sym_collapsed_total")
	if !okF || !okC {
		t.Fatalf("reduce counters not registered (full=%v sym_collapsed=%v)", okF, okC)
	}
	if full == 0 || collapsed == 0 {
		t.Errorf("a symmetric pair build must expand and collapse states: full=%d sym_collapsed=%d", full, collapsed)
	}
	if rd := rec.Reduction(); rd.FullStates != full || rd.SymCollapsed != collapsed {
		t.Errorf("counters %d/%d differ from the reduction record %+v", full, collapsed, rd)
	}
}

// TestCacheMetricsExported checks the cache instrumentation: a cold build
// counts a miss and a load/store latency pair; a warm rebuild counts a hit.
func TestCacheMetricsExported(t *testing.T) {
	cache := newMemCache()
	build := func() *obs.Recorder {
		m, rec := telemetryMeter()
		sys := counterSystem(3)
		sys.Cache = cache
		if _, err := sys.BuildWith(m); err != nil {
			t.Fatal(err)
		}
		// The cache track must exist on the trace whenever cache ops ran.
		var buf bytes.Buffer
		if err := rec.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"cache"`) {
			t.Errorf("trace missing cache track:\n%s", buf.String())
		}
		return rec
	}

	cold := build()
	if v, _ := snapshotValue(cold, "opentla_cache_misses_total"); v != 1 {
		t.Errorf("cold build misses = %d, want 1", v)
	}
	if v, _ := snapshotValue(cold, "opentla_cache_load_nanoseconds"); v != 1 {
		t.Errorf("cold build load observations = %d, want 1", v)
	}
	if v, _ := snapshotValue(cold, "opentla_cache_store_nanoseconds"); v != 1 {
		t.Errorf("cold build store observations = %d, want 1", v)
	}

	warm := build()
	if v, _ := snapshotValue(warm, "opentla_cache_hits_total"); v != 1 {
		t.Errorf("warm build hits = %d, want 1", v)
	}
	if v, _ := snapshotValue(warm, "opentla_cache_misses_total"); v != 0 {
		t.Errorf("warm build misses = %d, want 0", v)
	}
}
