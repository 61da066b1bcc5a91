// Package obs is the checker's one telemetry sink: phase spans, a flight
// recorder, live progress, performance counters and a per-worker timeline,
// all recorded once in a Recorder and rendered as the run report, the
// Chrome trace and the Prometheus text.
//
// Mature explicit-state checkers win adoption by explaining their runs —
// coverage, progress, diagnostics — not just by printing a verdict. This
// package makes every run of the engine explainable after the fact:
//
//   - A Recorder collects a tree of phase Spans (graph builds, monitor
//     products, safety/liveness/while-plus checks, per-hypothesis proof
//     obligations), each carrying the engine.RunStats delta of its phase.
//   - A fixed-size flight-recorder ring keeps the most recent events
//     (frontier level barriers, reduction tallies, budget warnings at
//     80%/95%, SCC milestones, cache outcomes) so an exhausted or panicked
//     run is diagnosable from its report.
//   - With telemetry on (EnableTelemetry, behind -trace and -metrics-out)
//     it also keeps a fixed set of counters, one gauge and four latency
//     histograms, and one timeline track per exploration worker.
//   - An opt-in progress ticker prints throughput, frontier depth/width,
//     worker occupancy, and budget headroom to stderr while a run is live.
//   - Finish, WriteTrace and WritePrometheus render the one record; the
//     CLIs write whichever files were asked for through Flags.Write.
//
// The Recorder is the meter's engine.Observer, so the budget, SCC and
// cache events every layer already sends through the meter land in it.
// The exploration layer reaches it once per exploration with FromMeter and
// calls its typed methods (Level, AddReduction, CacheOp, Explore). All
// methods are nil-safe: without a recorder a call site costs one pointer
// check, and with telemetry off the explorer takes no timestamps.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"opentla/internal/engine"
)

// ringSize is the flight-recorder capacity: enough to hold the full level
// history of any instance the engine can explore in minutes, small enough
// that the ring never matters for memory.
const ringSize = 256

// Event is one flight-recorder entry.
type Event struct {
	// T is the event time relative to the recorder's start.
	T time.Duration
	// Kind is a short stable tag: "level", "reduce", "budget",
	// "budget-exhausted", "scc", "unknown-verdict", or a graph-cache outcome
	// ("cache-hit", "cache-miss", "cache-corrupt", "checkpoint-saved",
	// "resume").
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

// ReductionStats counts the work a symmetry-reduced exploration did and
// avoided: the states expanded, the successors they produced, and the
// successor slots canonicalization redirected to an orbit representative.
type ReductionStats struct {
	FullStates   int64
	FullSuccs    int64
	SymCollapsed int64
}

// Recorder collects spans, events, progress gauges and, with telemetry on,
// counters and timeline tracks for one run. Create one with New; a nil
// *Recorder is valid and inert, so call sites never need to guard.
//
// Concurrency contract: spans are opened and closed by the single goroutine
// driving the check (phases are sequential); the other recording methods
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
	exhausted string         // span path when the budget latched
	cache     CacheStats     // graph-cache outcome counters, fed by ObserveEvent
	reduction ReductionStats // summed across explorations, fed by AddReduction

	// telemetry is the one enable bit for the counters and tracks below
	// (telemetry.go); set before the run starts.
	telemetry        bool
	explorations     int
	tracks           []*track
	contendedByShard []int64
	counters         [numCounters]atomic.Int64
	histograms       [numHistograms]histogram
	poolWorkers      atomic.Int64

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

// EnableTelemetry turns on the counters, histograms and timeline tracks
// that -trace and -metrics-out render. Call before the run starts.
func (r *Recorder) EnableTelemetry() { r.telemetry = true }

var noop = func() {}

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
			// Mirror the closed phase onto the timeline, so the trace shows
			// build/check phases above the per-worker tracks.
			if r.telemetry {
				r.trackLocked("phases").add(r.start, "phase", s.name, s.start, s.end)
			}
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

// Level records one frontier level barrier of exploration op: the level
// index (BFS depth), the width drained, the workers that drained it, and
// the states explored so far. It updates the progress gauges and drops one
// flight-recorder entry.
func (r *Recorder) Level(op string, level, width, workers, totalStates int) {
	if r == nil {
		return
	}
	r.gaugeOp.Store(op)
	r.gaugeLevel.Store(int64(level))
	r.gaugeWidth.Store(int64(width))
	r.gaugeWorkers.Store(int64(workers))
	r.counters[cLevels].Add(1)
	r.mu.Lock()
	r.pushEvent(Event{
		T:    r.now().Sub(r.start),
		Kind: "level",
		Msg:  fmt.Sprintf("%s: level %d, width %d, %d workers, %d states total", op, level, width, workers, totalStates),
	})
	r.mu.Unlock()
}

// AddReduction sums one reduced exploration's statistics into the run
// totals and drops one flight-recorder entry describing them.
func (r *Recorder) AddReduction(op string, s ReductionStats) {
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
func (r *Recorder) Reduction() ReductionStats {
	if r == nil {
		return ReductionStats{}
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
