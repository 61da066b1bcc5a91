// Package obs is the zero-dependency observability layer of the checker:
// phase spans, a flight recorder, live progress, machine-readable run
// reports, and profiling hooks.
//
// Mature explicit-state checkers win adoption by explaining their runs —
// coverage, progress, diagnostics — not just by printing a verdict. This
// package makes every run of the engine explainable after the fact:
//
//   - A Recorder collects a tree of phase Spans (graph builds, monitor
//     products, safety/liveness/while-plus checks, per-hypothesis proof
//     obligations), each carrying the engine.RunStats delta of its phase.
//   - A fixed-size flight-recorder ring keeps the most recent engine events
//     (frontier level barriers, budget warnings at 80%/95%, SCC milestones)
//     so an exhausted or panicked run is diagnosable from its report.
//   - An opt-in progress ticker prints throughput, frontier depth/width,
//     worker occupancy, and budget headroom to stderr while a run is live.
//   - Finish serializes everything into a versioned JSON report consumed by
//     scripts/bench.sh and CI.
//
// The Recorder implements engine.Observer and attaches to an engine.Meter,
// which every layer of the checker already threads; no additional plumbing
// is needed. All methods are nil-safe and the layer is allocation-light: a
// disabled (absent) recorder costs one pointer load and branch at each
// callback site, and an enabled one allocates only at phase boundaries and
// level barriers, never per state.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"opentla/internal/engine"
	"opentla/internal/metrics"
	"opentla/internal/trace"
)

// ringSize is the flight-recorder capacity: enough to hold the full level
// history of any instance the engine can explore in minutes, small enough
// that the ring never matters for memory.
const ringSize = 256

// Event is one flight-recorder entry.
type Event struct {
	// T is the event time relative to the recorder's start.
	T time.Duration
	// Kind is a short stable tag: "level", "budget", "budget-exhausted",
	// "scc", "unknown-verdict", or a graph-cache outcome ("cache-hit",
	// "cache-miss", "cache-corrupt", "checkpoint-saved", "resume").
	Kind string
	// Msg is the human-readable payload.
	Msg string
}

// span is one node of the phase tree.
type span struct {
	name       string
	start, end time.Time
	statsStart engine.RunStats
	statsEnd   engine.RunStats
	open       bool
	children   []*span
}

// Recorder collects spans, events, and progress gauges for one run. Create
// one with New; a nil *Recorder is valid and inert, so call sites never
// need to guard.
//
// Concurrency contract: spans are opened and closed by the single goroutine
// driving the check (phases are sequential); ObserveEvent and ObserveLevel
// are safe for concurrent use from exploration workers.
type Recorder struct {
	meter *engine.Meter
	start time.Time
	now   func() time.Time // injectable clock, for deterministic tests

	mu        sync.Mutex
	root      *span
	stack     []*span // open spans, root first
	ring      [ringSize]Event
	ringNext  int
	ringCount int
	exhausted string                // span path when the budget latched
	cache     CacheStats            // graph-cache outcome counters, fed by ObserveEvent
	reduction engine.ReductionStats // summed across explorations, fed by ObserveReduction

	// Performance-telemetry sinks, attached before the run starts. The
	// exploration layers reach them through trace.FromMeter /
	// metrics.FromMeter, which type-assert this recorder via the meter's
	// observer — so the engine package never imports either.
	tracer  *trace.Tracer
	metrics *metrics.Registry

	// Progress gauges, written at frontier level barriers.
	gaugeOp      atomic.Value // string: the exploration op label
	gaugeLevel   atomic.Int64
	gaugeWidth   atomic.Int64
	gaugeWorkers atomic.Int64

	progressStop func()
}

// New creates a recorder governing the given meter and installs itself as
// the meter's observer. The root span opens immediately and closes when
// Finish is called.
func New(m *engine.Meter) *Recorder {
	r := &Recorder{meter: m, now: time.Now}
	r.start = r.now()
	r.root = &span{name: "run", start: r.start, statsStart: m.Stats(), open: true}
	r.stack = []*span{r.root}
	m.SetObserver(r)
	return r
}

// FromMeter returns the Recorder installed as the meter's observer, or nil.
func FromMeter(m *engine.Meter) *Recorder {
	if m == nil {
		return nil
	}
	r, _ := m.Observer().(*Recorder)
	return r
}

// SetTracer attaches a perf tracer; phase spans closed after this call also
// land on the tracer's "phases" track. Call before the run starts. Nil-safe.
func (r *Recorder) SetTracer(t *trace.Tracer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tracer = t
	r.mu.Unlock()
}

// Tracer returns the attached perf tracer, or nil. It is the optional
// observer interface trace.FromMeter discovers.
func (r *Recorder) Tracer() *trace.Tracer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracer
}

// SetMetrics attaches a metric registry; Finish snapshots it into the
// report's metrics section. Call before the run starts. Nil-safe.
func (r *Recorder) SetMetrics(reg *metrics.Registry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.metrics = reg
	r.mu.Unlock()
}

// Metrics returns the attached metric registry, or nil. It is the optional
// observer interface metrics.FromMeter discovers.
func (r *Recorder) Metrics() *metrics.Registry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics
}

var noop = func() {}

// SpanFromMeter opens a span on the meter's recorder, if any, and returns
// the closing func. With no recorder attached it returns a no-op, so
// instrumented call sites cost one interface load on the disabled path.
func SpanFromMeter(m *engine.Meter, name string) func() {
	if r := FromMeter(m); r != nil {
		return r.Span(name)
	}
	return noop
}

// Span opens a named phase span nested in the innermost open span and
// returns the func that closes it (idempotent). The span records the meter
// stats at open and close, so its report entry carries the phase's
// RunStats delta. Nil-safe.
func (r *Recorder) Span(name string) func() {
	if r == nil {
		return noop
	}
	r.mu.Lock()
	s := &span{name: name, start: r.now(), statsStart: r.meter.Stats(), open: true}
	parent := r.stack[len(r.stack)-1]
	parent.children = append(parent.children, s)
	r.stack = append(r.stack, s)
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			s.end = r.now()
			s.statsEnd = r.meter.Stats()
			s.open = false
			// Pop s and anything a panicking phase left open above it.
			for i := len(r.stack) - 1; i > 0; i-- {
				if r.stack[i] == s {
					r.stack = r.stack[:i]
					break
				}
			}
			// Mirror the closed phase onto the perf timeline, so the trace
			// shows build/check phases above the per-worker tracks.
			r.tracer.Phase(s.name, s.start, s.end)
		})
	}
}

// pushEvent appends to the ring. Caller holds r.mu.
func (r *Recorder) pushEvent(e Event) {
	r.ring[r.ringNext] = e
	r.ringNext = (r.ringNext + 1) % ringSize
	if r.ringCount < ringSize {
		r.ringCount++
	}
}

// pathLocked renders the open-span path ("run/theorem:X/H2b/build:full-lhs").
// Caller holds r.mu.
func (r *Recorder) pathLocked() string {
	path := ""
	for i, s := range r.stack {
		if i > 0 {
			path += "/"
		}
		path += s.name
	}
	return path
}

// ObserveEvent implements engine.Observer: it records the event in the
// flight-recorder ring. The first budget-exhausted event additionally pins
// the open-span path, naming the phase that exhausted the budget, and
// graph-cache outcomes bump the report's cache counters.
func (r *Recorder) ObserveEvent(kind, msg string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.pushEvent(Event{T: r.now().Sub(r.start), Kind: kind, Msg: msg})
	if kind == "budget-exhausted" && r.exhausted == "" {
		r.exhausted = r.pathLocked()
	}
	switch kind {
	case "cache-hit":
		r.cache.Hits++
	case "cache-miss":
		r.cache.Misses++
	case "cache-corrupt":
		r.cache.Corrupt++
	case "checkpoint-saved":
		r.cache.CheckpointsSaved++
	case "resume":
		r.cache.Resumes++
	case "cache-quarantine":
		r.cache.Quarantined++
	case "cache-sweep":
		r.cache.TempSwept++
	case "cache-gc":
		r.cache.GCRemoved++
	case "cache-retry":
		r.cache.Retries++
	}
	r.mu.Unlock()
}

// ObserveLevel implements engine.Observer: it updates the progress gauges
// and drops one flight-recorder entry per frontier level barrier.
func (r *Recorder) ObserveLevel(op string, level, width, workers, totalStates int) {
	if r == nil {
		return
	}
	r.gaugeOp.Store(op)
	r.gaugeLevel.Store(int64(level))
	r.gaugeWidth.Store(int64(width))
	r.gaugeWorkers.Store(int64(workers))
	r.mu.Lock()
	r.pushEvent(Event{
		T:    r.now().Sub(r.start),
		Kind: "level",
		Msg:  fmt.Sprintf("%s: level %d, width %d, %d workers, %d states total", op, level, width, workers, totalStates),
	})
	r.mu.Unlock()
}

// ObserveReduction implements engine.Observer: it sums per-exploration
// reduction statistics into the run totals and drops one flight-recorder
// entry describing what the reduction achieved.
func (r *Recorder) ObserveReduction(op string, s engine.ReductionStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.reduction.FullStates += s.FullStates
	r.reduction.FullSuccs += s.FullSuccs
	r.reduction.SymCollapsed += s.SymCollapsed
	r.pushEvent(Event{
		T:    r.now().Sub(r.start),
		Kind: "reduce",
		Msg: fmt.Sprintf("%s: %d expansions, %d sym-collapsed successors",
			op, s.FullStates, s.SymCollapsed),
	})
	r.mu.Unlock()
}

// Reduction returns the reduction statistics accumulated so far.
func (r *Recorder) Reduction() engine.ReductionStats {
	if r == nil {
		return engine.ReductionStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reduction
}

// Events returns the flight-recorder contents, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.ringCount)
	start := r.ringNext - r.ringCount
	if start < 0 {
		start += ringSize
	}
	for i := 0; i < r.ringCount; i++ {
		out = append(out, r.ring[(start+i)%ringSize])
	}
	return out
}

// CacheStats returns the graph-cache outcome counters accumulated so far.
func (r *Recorder) CacheStats() CacheStats {
	if r == nil {
		return CacheStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cache
}

// ExhaustedPhase returns the open-span path at the moment the budget
// latched, or "" if the budget never exhausted.
func (r *Recorder) ExhaustedPhase() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exhausted
}
