package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"opentla/internal/engine"
)

// TestFlagsValidate pins the -progress-interval contract: positive passes,
// zero and negative are rejected.
func TestFlagsValidate(t *testing.T) {
	cases := []struct {
		interval time.Duration
		ok       bool
	}{
		{time.Second, true},
		{time.Millisecond, true},
		{0, false},
		{-time.Second, false},
	}
	for _, tc := range cases {
		f := &Flags{ProgressInterval: tc.interval}
		err := f.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate with interval %v: err=%v, want ok=%v", tc.interval, err, tc.ok)
		}
	}
}

func TestFlagsEnabledIncludesTelemetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Flags
		want bool
	}{
		{"off", Flags{ProgressInterval: time.Second}, false},
		{"progress", Flags{Progress: true, ProgressInterval: time.Second}, true},
		{"trace", Flags{Trace: "t.json", ProgressInterval: time.Second}, true},
		{"metrics", Flags{MetricsOut: "m.prom", ProgressInterval: time.Second}, true},
	} {
		if got := tc.f.Enabled(); got != tc.want {
			t.Errorf("%s: Enabled()=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestProgressPeriod(t *testing.T) {
	f := Flags{Progress: false, ProgressInterval: 5 * time.Second}
	if f.ProgressPeriod() != 0 {
		t.Fatalf("disabled progress must yield period 0")
	}
	f.Progress = true
	if f.ProgressPeriod() != 5*time.Second {
		t.Fatalf("enabled progress must yield the configured interval")
	}
}

// TestAddFlagsDefaults checks the registered defaults: progress off,
// interval 1s, no trace/metrics outputs.
func TestAddFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := AddFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Progress || f.ProgressInterval != time.Second || f.Trace != "" || f.MetricsOut != "" {
		t.Fatalf("unexpected defaults: %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
}

// TestTelemetryAttachment checks Flags.NewRecorder: no flag, no recorder;
// -report alone gives a recorder with telemetry off; -trace and
// -metrics-out each turn the one telemetry bit on. The recorder is the
// meter's observer, which is how FromMeter finds it.
func TestTelemetryAttachment(t *testing.T) {
	for _, tc := range []struct {
		name          string
		f             Flags
		rec, telemetr bool
	}{
		{"none", Flags{}, false, false},
		{"report", Flags{Report: "r.json"}, true, false},
		{"trace", Flags{Trace: "t.json"}, true, true},
		{"metrics", Flags{MetricsOut: "m.prom"}, true, true},
	} {
		m := engine.NoLimit()
		rec := tc.f.NewRecorder(m)
		if (rec != nil) != tc.rec {
			t.Fatalf("%s: recorder = %v, want present=%v", tc.name, rec, tc.rec)
		}
		if FromMeter(m) != rec {
			t.Fatalf("%s: FromMeter must return the installed recorder", tc.name)
		}
		if got := rec.Explore(1) != nil; got != tc.telemetr {
			t.Fatalf("%s: telemetry on = %v, want %v", tc.name, got, tc.telemetr)
		}
	}
}

// decoded mirrors the trace wire shape loosely for assertions.
type decoded struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		PID  int             `json:"pid"`
		TID  int64           `json:"tid"`
		TS   float64         `json:"ts"`
		Dur  *float64        `json:"dur"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

func render(t *testing.T, r *Recorder) decoded {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var d decoded
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, buf.String())
	}
	return d
}

// threadNames maps tids to track names.
func threadNames(t *testing.T, d decoded) map[int64]string {
	t.Helper()
	names := map[int64]string{}
	for _, e := range d.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				t.Fatal(err)
			}
			names[e.TID] = args.Name
		}
	}
	return names
}

// telemetryRecorder returns a recorder with telemetry on.
func telemetryRecorder() *Recorder {
	r := New(engine.NoLimit())
	r.EnableTelemetry()
	return r
}

// TestSpanEmitsPhaseSlice checks that closing a recorder span mirrors it
// onto the trace's "phases" track when telemetry is on, and only then.
func TestSpanEmitsPhaseSlice(t *testing.T) {
	rec := telemetryRecorder()
	rec.Span("build:demo")()
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"build:demo"`) || !strings.Contains(out, `"phases"`) {
		t.Fatalf("trace missing phase slice for closed span:\n%s", out)
	}
	off := New(engine.NoLimit())
	off.Span("build:demo")()
	if d := render(t, off); len(d.TraceEvents) != 1 {
		t.Fatalf("telemetry off: want only the process_name event, got %d", len(d.TraceEvents))
	}
}

// TestNilTracerIsNoop: a nil recorder, or one with telemetry off, records
// nothing on the timeline and still renders a loadable trace.
func TestNilTracerIsNoop(t *testing.T) {
	var r *Recorder
	r.CacheOp("load", time.Now())
	var e *Exploration
	e.StoreCounts(1, 1, 1, nil)
	d := render(t, r)
	if d.DisplayTimeUnit != "ms" || len(d.TraceEvents) != 1 || d.TraceEvents[0].Name != "process_name" {
		t.Fatalf("nil recorder must render an empty trace, got %+v", d)
	}
	off := New(engine.NoLimit())
	if off.Explore(2) != nil {
		t.Fatal("telemetry off must hand out no exploration handle")
	}
	off.CacheOp("load", time.Now())
	if d := render(t, off); len(d.TraceEvents) != 1 {
		t.Fatalf("telemetry off must record no slices, got %d events", len(d.TraceEvents))
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := telemetryRecorder()
	base := r.start
	e := r.Explore(2)
	e.drainEnd[0] = base.Add(30 * time.Microsecond)
	e.drainEnd[1] = base.Add(35 * time.Microsecond)
	e.tracks[0].add(base, "explore", "expand", base.Add(10*time.Microsecond), base.Add(30*time.Microsecond),
		kv{"level", 2}, kv{"states", 17})
	e.BarrierDone(2, 2, base.Add(35*time.Microsecond), base.Add(40*time.Microsecond))
	r.mu.Lock()
	r.trackLocked("phases").add(base, "phase", "build", base, base.Add(40*time.Microsecond))
	r.mu.Unlock()

	d := render(t, r)
	var meta, slices int
	for _, ev := range d.TraceEvents {
		if ev.PID != 1 {
			t.Fatalf("all events must share pid 1, got %d", ev.PID)
		}
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("complete event %q must carry non-negative dur", ev.Name)
			}
		default:
			t.Fatalf("unexpected ph %q", ev.Ph)
		}
	}
	// process_name + worker 0, worker 1, barrier, phases; expand, two
	// barrier waits, the seal, the phase.
	if meta != 5 || slices != 5 {
		t.Fatalf("got %d metadata / %d slice events, want 5/5", meta, slices)
	}
	names := threadNames(t, d)
	if names[0] != "worker 0" || names[1] != "worker 1" || names[2] != "barrier" || names[3] != "phases" {
		t.Fatalf("track naming/tid order wrong: %v", names)
	}
	for _, ev := range d.TraceEvents {
		if ev.Ph == "X" && ev.Name == "expand" {
			if ev.TID != 0 || ev.TS != 10 || *ev.Dur != 20 || ev.Cat != "explore" {
				t.Fatalf("slice fields wrong: tid=%d ts=%v dur=%v cat=%q", ev.TID, ev.TS, *ev.Dur, ev.Cat)
			}
			var args map[string]int64
			if err := json.Unmarshal(ev.Args, &args); err != nil {
				t.Fatal(err)
			}
			if args["level"] != 2 || args["states"] != 17 {
				t.Fatalf("slice args wrong: %v", args)
			}
		}
	}
	h := &r.histograms[hBarrierWait]
	if h.count.Load() != 2 || h.sum.Load() != 5000 {
		t.Fatalf("barrier waits: count %d sum %d, want 2/5000", h.count.Load(), h.sum.Load())
	}
}

// TestEmptyTracksSuppressed: a track that never recorded a slice must not
// reach the export — no empty Perfetto rows, no phantom workers in agprof's
// utilization denominator.
func TestEmptyTracksSuppressed(t *testing.T) {
	r := telemetryRecorder()
	e := r.Explore(2) // worker 1 never runs: an idle pool worker
	e.EndDrain(0, 0, 1, 1, 0, time.Now())
	for _, name := range threadNames(t, render(t, r)) {
		if name == "worker 1" || name == "barrier" {
			t.Fatalf("empty track %q must be suppressed from the export", name)
		}
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	r := telemetryRecorder()
	now := time.Now()
	r.mu.Lock()
	r.trackLocked("w").add(r.start, "c", "backwards", now, now.Add(-time.Second))
	r.mu.Unlock()
	for _, e := range render(t, r).TraceEvents {
		if e.Ph == "X" && *e.Dur != 0 {
			t.Fatalf("negative duration must clamp to 0, got %v", *e.Dur)
		}
	}
}

// TestConcurrentDistinctTracks: workers record on their own tracks and
// the shared counters at once without losing an event (run with -race).
func TestConcurrentDistinctTracks(t *testing.T) {
	r := telemetryRecorder()
	const workers = 8
	e := r.Explore(workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				e.EndDrain(i, j, 1, 2, 0, time.Now())
				e.EndCommit(i, j, time.Now())
			}
		}(i)
	}
	wg.Wait()
	perTID := map[int64]int{}
	for _, ev := range render(t, r).TraceEvents {
		if ev.Ph == "X" {
			perTID[ev.TID]++
		}
	}
	if len(perTID) != workers {
		t.Fatalf("want %d busy tracks, got %d", workers, len(perTID))
	}
	for tid, n := range perTID {
		if n != 400 {
			t.Fatalf("track %d lost events: %d/400", tid, n)
		}
	}
}

// TestConcurrentObserve: histogram observations and counter adds from many
// goroutines all land.
func TestConcurrentObserve(t *testing.T) {
	r := telemetryRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Level("op", j, 1, 1, j)
				r.histograms[hCacheLoad].observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if n, c := r.counters[cLevels].Load(), r.histograms[hCacheLoad].count.Load(); n != 8000 || c != 8000 {
		t.Fatalf("counter=%d hist=%d, want 8000", n, c)
	}
}

// TestNilSafety: a nil recorder renders no metrics and writes the
// one-comment exposition of an empty record.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Points() != nil {
		t.Fatal("nil recorder must have no points")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.String() != "# no series recorded\n" {
		t.Fatalf("nil recorder exposition: err=%v out=%q", err, buf.String())
	}
	if New(engine.NoLimit()).Points() != nil {
		t.Fatal("telemetry off must export no points")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := telemetryRecorder()
	for _, v := range []int64{1, 1000, 1001, 1e10, 2e10} {
		r.histograms[hCacheStore].observe(v)
	}
	pts := r.Points()
	if len(pts) != 1 || pts[0].Name != "opentla_cache_store_nanoseconds" {
		t.Fatalf("want only the store histogram, got %+v", pts)
	}
	p := pts[0]
	if p.Count != 5 || p.Sum != 1+1000+1001+1e10+2e10 {
		t.Fatalf("count=%d sum=%d", p.Count, p.Sum)
	}
	// Cumulative: <=1µs holds {1,1000}, <=10µs adds 1001, <=10s adds 1e10,
	// +Inf adds 2e10.
	wantCum := []int64{2, 3, 3, 3, 3, 3, 3, 4, 5}
	if len(p.Buckets) != len(wantCum) {
		t.Fatalf("want %d buckets, got %d", len(wantCum), len(p.Buckets))
	}
	for i, b := range p.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d: count=%d want %d", i, b.Count, wantCum[i])
		}
	}
	if p.Buckets[len(p.Buckets)-1].UpperNS != nil || *p.Buckets[0].UpperNS != 1000 {
		t.Fatalf("bucket bounds wrong: first %v, last must be +Inf", *p.Buckets[0].UpperNS)
	}
}

// exploredRecorder records one exploration with contention on shards 2 and
// 10, a reduction tally, and a cache hit and a cache miss.
func exploredRecorder() *Recorder {
	r := telemetryRecorder()
	r.Explore(4).StoreCounts(100, 5, 7, []int64{2: 3, 10: 2})
	r.AddReduction("op", ReductionStats{FullStates: 4, FullSuccs: 9, SymCollapsed: 2})
	r.CacheOp("load", time.Now())
	r.CacheOp("load", time.Now())
	r.ObserveEvent("cache-hit", "reusing cached graph")
	return r
}

func TestSnapshotDeterministic(t *testing.T) {
	a, b := exploredRecorder().Points(), exploredRecorder().Points()
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Labels != b[i].Labels {
			t.Fatalf("order not deterministic at %d: %s%s vs %s%s", i, a[i].Name, a[i].Labels, b[i].Name, b[i].Labels)
		}
		if i > 0 && (a[i-1].Name > a[i].Name || a[i-1].Name == a[i].Name && a[i-1].Labels >= a[i].Labels) {
			t.Fatalf("points not sorted by (name, labels) at %d", i)
		}
	}
	var keys []string
	for _, p := range a {
		if p.Name == "opentla_store_lock_contended_total" {
			keys = append(keys, p.Labels)
		}
	}
	if strings.Join(keys, " ") != ` shard="10" shard="2"` {
		t.Fatalf("contended series = %q, want the total then shards 10 and 2", keys)
	}
}

// promLine matches every non-comment line the exposition may contain:
// `name 123`, `name{label="v"} 123`, `name_bucket{le="+Inf"} 4`.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+$`)

func TestPrometheusExpositionShape(t *testing.T) {
	r := exploredRecorder()
	r.histograms[hBarrierWait].observe(1500)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
	}
	for _, fam := range []string{
		"opentla_store_lock_acquisitions_total",
		"opentla_store_lock_contended_total",
		"opentla_workers",
		"opentla_barrier_wait_nanoseconds",
		"opentla_cache_hits_total",
		"opentla_cache_misses_total",
		"opentla_reduce_sym_collapsed_total",
	} {
		if !typed[fam] {
			t.Fatalf("family %s missing TYPE line\n%s", fam, out)
		}
	}
	for _, want := range []string{
		`opentla_barrier_wait_nanoseconds_bucket{le="1000"} 0`,
		`opentla_barrier_wait_nanoseconds_bucket{le="10000"} 1`,
		`opentla_barrier_wait_nanoseconds_bucket{le="+Inf"} 1`,
		"opentla_barrier_wait_nanoseconds_sum 1500",
		"opentla_barrier_wait_nanoseconds_count 1",
		"opentla_store_lock_contended_total 5",
		`opentla_store_lock_contended_total{shard="2"} 3`,
		"opentla_workers 4",
		"opentla_cache_hits_total 1",
		"opentla_cache_misses_total 1",
		"opentla_reduce_full_succs_total 9",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE opentla_store_lock_contended_total") != 1 {
		t.Fatalf("a family must have one TYPE line\n%s", out)
	}
}

// TestFinishIncludesMetricsSection checks the schema-6 metrics section:
// present (and equal to Points) with telemetry on, absent without.
func TestFinishIncludesMetricsSection(t *testing.T) {
	rec := exploredRecorder()
	rep := rec.Finish("test", Config{}, engine.Holds, "")
	if rep.SchemaVersion != 7 {
		t.Fatalf("schema_version = %d, want 7", rep.SchemaVersion)
	}
	if len(rep.Metrics) == 0 || len(rep.Metrics) != len(rec.Points()) {
		t.Fatalf("metrics section wrong: %+v", rep.Metrics)
	}
	rep2 := New(engine.NoLimit()).Finish("test", Config{}, engine.Holds, "")
	if rep2.Metrics != nil {
		t.Fatalf("metrics section must be absent without telemetry")
	}
}

// TestWriteFile: Flags.Write writes every requested file from the one
// record, and a failing file does not stop the others.
func TestWriteFile(t *testing.T) {
	rec := exploredRecorder()
	dir := t.TempDir()
	f := &Flags{
		Report:     filepath.Join(dir, "missing", "r.json"), // cannot be created
		Trace:      filepath.Join(dir, "t.json"),
		MetricsOut: filepath.Join(dir, "m.prom"),
	}
	err := f.Write(rec, rec.Finish("test", Config{}, engine.Holds, ""))
	if err == nil || !strings.Contains(err.Error(), "run report") {
		t.Fatalf("want the report write error, got %v", err)
	}
	blob, err := os.ReadFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var d decoded
	if err := json.Unmarshal(blob, &d); err != nil || d.DisplayTimeUnit != "ms" || len(d.TraceEvents) == 0 {
		t.Fatalf("unexpected trace file: %v %+v", err, d)
	}
	prom, err := os.ReadFile(f.MetricsOut)
	if err != nil || !strings.Contains(string(prom), "opentla_cache_hits_total 1\n") {
		t.Fatalf("unexpected metrics file: %v\n%s", err, prom)
	}
}
