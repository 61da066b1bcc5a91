package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"opentla/internal/engine"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// newFakeRecorder attaches a recorder to m and replaces its clock with a
// deterministic one advancing 10ms per reading, so span and event times in
// reports are reproducible.
func newFakeRecorder(m *engine.Meter) *Recorder {
	r := New(m)
	base := time.Unix(1700000000, 0)
	cur := base
	r.now = func() time.Time {
		cur = cur.Add(10 * time.Millisecond)
		return cur
	}
	r.start = base
	r.root.start = base
	r.root.statsStart = engine.RunStats{}
	return r
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Span("phase")() // must not panic
	r.ObserveEvent("budget", "msg")
	r.Level("op", 1, 2, 3, 4)
	r.AddReduction("op", ReductionStats{FullStates: 1})
	r.CacheOp("load", time.Now())
	if r.Explore(4) != nil {
		t.Error("nil recorder Explore() should be nil")
	}
	if got := r.Events(); got != nil {
		t.Errorf("nil recorder Events() = %v, want nil", got)
	}
	if got := r.ExhaustedPhase(); got != "" {
		t.Errorf("nil recorder ExhaustedPhase() = %q, want empty", got)
	}
	stop := r.StartProgress(io.Discard, time.Second)
	stop()
	stop() // idempotent
	rep := r.Finish("tool", Config{}, engine.Holds, "")
	if rep == nil || rep.SchemaVersion != SchemaVersion || rep.Span != nil {
		t.Errorf("nil recorder Finish() = %+v, want minimal report without span tree", rep)
	}
}

func TestSpanFromMeterWithoutRecorder(t *testing.T) {
	m := engine.NoLimit()
	FromMeter(m).Span("phase")() // no recorder attached: must be a no-op
	FromMeter(nil).Span("phase")()
	if FromMeter(m) != nil {
		t.Error("FromMeter on bare meter should be nil")
	}
}

func TestSpanNestingAndStatsDeltas(t *testing.T) {
	m := engine.NoLimit()
	r := newFakeRecorder(m)

	endOuter := r.Span("outer")
	for i := 0; i < 3; i++ {
		if err := m.AddState(); err != nil {
			t.Fatal(err)
		}
	}
	endInner := r.Span("inner")
	for i := 0; i < 4; i++ {
		if err := m.AddState(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.AddTransitions(9); err != nil {
		t.Fatal(err)
	}
	endInner()
	endOuter()
	endOuter() // close funcs are idempotent

	rep := r.Finish("t", Config{}, engine.Holds, "")
	if rep.Span.Name != "run" || len(rep.Span.Children) != 1 {
		t.Fatalf("unexpected span tree root: %+v", rep.Span)
	}
	outer := rep.Span.Children[0]
	if outer.Name != "outer" || outer.Stats.States != 7 || outer.Stats.Transitions != 9 {
		t.Errorf("outer span = %+v, want 7 states, 9 transitions", outer)
	}
	if len(outer.Children) != 1 {
		t.Fatalf("outer children = %d, want 1", len(outer.Children))
	}
	inner := outer.Children[0]
	if inner.Name != "inner" || inner.Stats.States != 4 || inner.Stats.Transitions != 9 {
		t.Errorf("inner span = %+v, want 4 states, 9 transitions", inner)
	}
	if rep.Stats.States != 7 {
		t.Errorf("top-level states = %d, want 7", rep.Stats.States)
	}
}

func TestSpanLeakRecovery(t *testing.T) {
	// Closing an outer span pops inner spans a panicking phase leaked open,
	// so later spans attach at the right depth.
	m := engine.NoLimit()
	r := newFakeRecorder(m)
	endOuter := r.Span("outer")
	r.Span("leaked") // never closed
	endOuter()
	r.Span("after")()
	rep := r.Finish("t", Config{}, engine.Holds, "")
	names := make([]string, 0, 2)
	for _, c := range rep.Span.Children {
		names = append(names, c.Name)
	}
	if fmt.Sprint(names) != "[outer after]" {
		t.Errorf("root children = %v, want [outer after]", names)
	}
	if leaked := rep.Span.Children[0].Children[0]; leaked.Name != "leaked" || !leaked.Open {
		t.Errorf("leaked span = %+v, want open child of outer", leaked)
	}
}

func TestRingWraparound(t *testing.T) {
	m := engine.NoLimit()
	r := newFakeRecorder(m)
	const total = ringSize + 50
	for i := 0; i < total; i++ {
		r.ObserveEvent("level", fmt.Sprintf("event %d", i))
	}
	events := r.Events()
	if len(events) != ringSize {
		t.Fatalf("ring holds %d events, want %d", len(events), ringSize)
	}
	if want := fmt.Sprintf("event %d", total-ringSize); events[0].Msg != want {
		t.Errorf("oldest event = %q, want %q", events[0].Msg, want)
	}
	if want := fmt.Sprintf("event %d", total-1); events[len(events)-1].Msg != want {
		t.Errorf("newest event = %q, want %q", events[len(events)-1].Msg, want)
	}
}

func TestExhaustedPhaseCapture(t *testing.T) {
	m := engine.Budget{MaxStates: 5}.Meter()
	r := newFakeRecorder(m)
	end1 := r.Span("theorem:demo")
	end2 := r.Span("build:closure")
	var lastErr error
	for i := 0; i < 10 && lastErr == nil; i++ {
		lastErr = m.AddState()
	}
	if lastErr == nil {
		t.Fatal("budget should have exhausted")
	}
	end2()
	end1()
	if got, want := r.ExhaustedPhase(), "run/theorem:demo/build:closure"; got != want {
		t.Errorf("ExhaustedPhase() = %q, want %q", got, want)
	}
	rep := r.Finish("t", Config{MaxStates: 5}, engine.Unknown, lastErr.Error())
	if rep.ExhaustedPhase != "run/theorem:demo/build:closure" {
		t.Errorf("report exhausted_phase = %q", rep.ExhaustedPhase)
	}
	if len(rep.Events) == 0 {
		t.Error("UNKNOWN report should carry the flight-recorder tail")
	}
	var sawWarn, sawExhausted bool
	for _, e := range rep.Events {
		sawWarn = sawWarn || e.Kind == "budget"
		sawExhausted = sawExhausted || e.Kind == "budget-exhausted"
	}
	if !sawWarn || !sawExhausted {
		t.Errorf("events missing budget warnings or exhaustion: %+v", rep.Events)
	}

	// A HOLDS report keeps the flight recorder out of the JSON.
	if rep2 := r.Finish("t", Config{}, engine.Holds, ""); len(rep2.Events) != 0 {
		t.Errorf("HOLDS report should not carry events, got %d", len(rep2.Events))
	}
}

func TestCacheStatsFromEvents(t *testing.T) {
	m := engine.NoLimit()
	r := newFakeRecorder(m)
	// Cache events arrive through the ordinary Observer seam (ts emits them
	// via Meter.Note); the recorder aggregates them into the report section.
	m.Note("cache-miss", "no cached graph")
	m.Note("checkpoint-saved", "checkpoint at level 3")
	m.Note("resume", "resuming from level 3")
	m.Note("cache-hit", "reusing cached graph")
	m.Note("cache-hit", "reusing cached product")
	m.Note("cache-corrupt", "cache entry unusable")
	want := CacheStats{Hits: 2, Misses: 1, Corrupt: 1, CheckpointsSaved: 1, Resumes: 1}
	if got := r.CacheStats(); got != want {
		t.Errorf("CacheStats() = %+v, want %+v", got, want)
	}
	rep := r.Finish("t", Config{}, engine.Holds, "")
	if rep.Cache == nil || *rep.Cache != want {
		t.Errorf("report cache = %+v, want %+v", rep.Cache, want)
	}

	// A run that never touched a cache omits the section entirely.
	r2 := newFakeRecorder(engine.NoLimit())
	if rep2 := r2.Finish("t", Config{}, engine.Holds, ""); rep2.Cache != nil {
		t.Errorf("cache-free run should omit the cache section, got %+v", rep2.Cache)
	}
	var nilRec *Recorder
	if got := nilRec.CacheStats(); got != (CacheStats{}) {
		t.Errorf("nil recorder CacheStats() = %+v", got)
	}
}

func TestObserveLevelUpdatesGauges(t *testing.T) {
	m := engine.NoLimit()
	r := newFakeRecorder(m)
	r.Level("ts.Build(demo)", 7, 42, 4, 1000)
	if r.gaugeLevel.Load() != 7 || r.gaugeWidth.Load() != 42 || r.gaugeWorkers.Load() != 4 {
		t.Errorf("gauges = %d/%d/%d, want 7/42/4",
			r.gaugeLevel.Load(), r.gaugeWidth.Load(), r.gaugeWorkers.Load())
	}
	events := r.Events()
	if len(events) != 1 || events[0].Kind != "level" ||
		!strings.Contains(events[0].Msg, "level 7, width 42, 4 workers, 1000 states total") {
		t.Errorf("level event = %+v", events)
	}
}

func TestProgressLine(t *testing.T) {
	m := engine.Budget{MaxStates: 100}.Meter()
	r := newFakeRecorder(m)
	for i := 0; i < 45; i++ {
		if err := m.AddState(); err != nil {
			t.Fatal(err)
		}
	}
	r.Level("ts.Build(demo)", 3, 15, 2, 45)
	var sb strings.Builder
	r.progressLine(&sb, 0, time.Now().Add(-time.Second))
	line := sb.String()
	for _, want := range []string{
		"progress: 45 states", "depth 3", "width 15", "workers 2",
		"in ts.Build(demo)", "budget used: states 45%",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
}

func TestHeadroom(t *testing.T) {
	tests := []struct {
		name string
		b    engine.Budget
		st   engine.RunStats
		want string
	}{
		{"unlimited", engine.Budget{}, engine.RunStats{States: 5}, ""},
		{"states only", engine.Budget{MaxStates: 100}, engine.RunStats{States: 45}, "states 45%"},
		{
			"all dimensions",
			engine.Budget{MaxStates: 100, MaxTransitions: 1000, Timeout: 10 * time.Second},
			engine.RunStats{States: 45, Transitions: 120, Elapsed: 3 * time.Second},
			"states 45%, transitions 12%, time 30%",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := headroom(tt.b, tt.st); got != tt.want {
				t.Errorf("headroom() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestStartProgressWritesAndStops(t *testing.T) {
	m := engine.NoLimit()
	r := New(m)
	var mu syncWriter
	stop := r.StartProgress(&mu, 5*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for mu.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if mu.Len() == 0 {
		t.Error("progress ticker wrote nothing")
	}
	if !strings.Contains(mu.String(), "progress: ") {
		t.Errorf("progress output %q missing prefix", mu.String())
	}
}

// syncWriter is a mutex-guarded string buffer: the ticker goroutine writes
// while the test polls.
type syncWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *syncWriter) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Len()
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// goldenReport builds a deterministic report: fake clock, scripted meter
// activity, one exhaustion inside a nested span.
func goldenReport(t *testing.T) *Report {
	t.Helper()
	m := engine.Budget{MaxStates: 10}.Meter()
	r := newFakeRecorder(m)
	endTheorem := r.Span("theorem:demo")
	endBuild := r.Span("build:demo/closure")
	var lastErr error
	for i := 0; i < 12 && lastErr == nil; i++ {
		lastErr = m.AddState()
	}
	if lastErr == nil {
		t.Fatal("budget should have exhausted")
	}
	if err := m.AddTransitions(17); err == nil {
		t.Fatal("meter should stay exhausted")
	}
	m.NoteFrontier(6)
	r.Level("ts.Build(demo/closure)", 0, 6, 2, 6)
	r.AddReduction("ts.Build(demo/closure)", ReductionStats{
		FullStates: 6, FullSuccs: 15, SymCollapsed: 3,
	})
	// Deterministic telemetry, pinning the metrics section shape: one
	// two-worker exploration's store tallies and one barrier wait.
	r.EnableTelemetry()
	r.Explore(2).StoreCounts(12, 2, 0, []int64{3: 2})
	r.histograms[hBarrierWait].observe(4000)
	endBuild()
	endTheorem()
	rep := r.Finish("goldentest", Config{
		Model:     "demo",
		N:         1,
		K:         2,
		Workers:   2,
		MaxStates: 10,
		Reduce:    "sym",
	}, engine.Unknown, lastErr.Error())
	rep.Hypotheses = append(rep.Hypotheses, Hypothesis{Name: "H1: C(E) => E_1", Holds: true})
	rep.Vet = &VetReport{
		Mode: "strict", Errors: 1, Warnings: 0, Infos: 1,
		Diagnostics: []VetDiagnostic{
			{Code: "SV002", Severity: "error", Component: "QM1", Action: "Enq",
				Message: `action constrains the next-state value of input "i.val"`,
				Hint:    `only the environment may change "i.val"; make it an output or drop the constraint`},
			{Code: "SV034", Severity: "info", Component: "QM1", Action: "WF[0]",
				Message: "fairness subscript mixes inputs with owned variables; an input change alone satisfies the angle-action"},
		},
	}
	return rep
}

// TestGoldenReportSchema pins the run-report JSON shape. Timestamps that
// depend on the wall clock are normalized; span and event times come from
// the injected test clock and are exact.
func TestGoldenReportSchema(t *testing.T) {
	rep := goldenReport(t)
	rep.Normalize()
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(data) != string(want) {
		t.Errorf("report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, data, want)
	}
}

// TestReportRoundTrip checks that a report survives marshal → unmarshal →
// marshal byte-identically, so downstream tooling can rewrite reports.
func TestReportRoundTrip(t *testing.T) {
	rep := goldenReport(t)
	data, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", data, data2)
	}
	if back.SchemaVersion != SchemaVersion || back.Verdict != "UNKNOWN" ||
		back.ExhaustedPhase == "" || back.Span == nil {
		t.Errorf("round-tripped report lost fields: %+v", back)
	}
}
