package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"opentla/internal/engine"
)

// SchemaVersion identifies the run-report JSON schema. Bump it on any
// incompatible change; the golden file internal/obs/testdata/report.golden
// pins the current shape. Version 2 added the cache section (graph-cache
// hit/miss/corruption and checkpoint/resume counters); version 3 added the
// vet section (static-analysis pre-check results); version 4 added the
// self-healing cache counters (quarantined, temp_swept, gc_removed,
// retries) and the "stall"/"cache-*" flight-recorder event kinds;
// version 5 added the reduction section (POR/symmetry statistics), the
// config "reduce" field, and the "reduce" flight-recorder event kind;
// version 6 added the metrics section (performance-telemetry counter/
// gauge/histogram snapshot, present when the run had telemetry on via
// -trace or -metrics-out); version 7 added the vet section's bound field
// (the semantic pass's state-space cardinality upper bound).
const SchemaVersion = 7

// Report is the versioned machine-readable run report written by -report.
type Report struct {
	SchemaVersion int       `json:"schema_version"`
	Tool          string    `json:"tool"`
	Config        Config    `json:"config"`
	Build         BuildInfo `json:"build_info"`
	// Verdict is the three-valued outcome (HOLDS, VIOLATED, UNKNOWN).
	Verdict       string `json:"verdict"`
	UnknownReason string `json:"unknown_reason,omitempty"`
	// ExhaustedPhase names the span path that was open when the budget
	// latched ("run/theorem:X/H2b/build:..."), empty if it never did.
	ExhaustedPhase string `json:"exhausted_phase,omitempty"`
	// Stats is the final cumulative RunStats of the governing meter.
	Stats Stats `json:"stats"`
	// Hypotheses lists per-obligation outcomes, for theorem-shaped runs.
	Hypotheses []Hypothesis `json:"hypotheses,omitempty"`
	// Vet summarizes the static-analysis pre-check, present when the run
	// executed one (-vet=strict or -vet=warn).
	Vet *VetReport `json:"vet,omitempty"`
	// Cache summarizes graph-cache activity, present when any counter is
	// nonzero (i.e. a cache was configured and consulted).
	Cache *CacheStats `json:"cache,omitempty"`
	// Reduction summarizes state-space reduction activity (-reduce),
	// present when any exploration reported reduction statistics.
	Reduction *ReductionReport `json:"reduction,omitempty"`
	// Metrics is the performance-telemetry snapshot (sorted by name), the
	// same samples -metrics-out writes; present when the run had telemetry
	// on (-trace or -metrics-out) and recorded any.
	Metrics []Point `json:"metrics,omitempty"`
	// Span is the root of the phase tree; child spans carry per-phase
	// RunStats deltas that account for the top-level Stats.
	Span *Span `json:"span"`
	// Events is the flight-recorder tail, included when the verdict is
	// UNKNOWN (budget exhaustion or a contained engine failure).
	Events        []EventJSON `json:"events,omitempty"`
	GeneratedUnix int64       `json:"generated_at_unix"`
}

// Config records the run configuration, for reproducibility.
type Config struct {
	Model          string `json:"model,omitempty"`
	N              int    `json:"n,omitempty"`
	K              int    `json:"k,omitempty"`
	Workers        int    `json:"workers"`
	BudgetMS       int64  `json:"budget_ms"`
	MaxStates      int    `json:"max_states"`
	MaxTransitions int    `json:"max_transitions"`
	// Reduce is the -reduce mode of the run ("sym"), empty when reduction
	// was off.
	Reduce string `json:"reduce,omitempty"`
}

// BuildInfo identifies the binary that produced the report.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
}

// Stats is the JSON rendering of engine.RunStats. In a Span it is the
// phase's delta for the monotonic counters (states, transitions, sccs),
// while peak_frontier is the cumulative peak observed by the end of the
// phase (a running maximum has no meaningful delta).
type Stats struct {
	States       int     `json:"states"`
	Transitions  int     `json:"transitions"`
	SCCs         int     `json:"sccs"`
	PeakFrontier int     `json:"peak_frontier"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// CacheStats counts graph-cache outcomes over one run, aggregated from the
// corresponding flight-recorder events.
type CacheStats struct {
	// Hits counts complete graphs served from the cache (graph construction
	// skipped entirely).
	Hits int `json:"hits"`
	// Misses counts cache consultations that found no entry.
	Misses int `json:"misses"`
	// Corrupt counts entries or checkpoints that existed but were unusable
	// (decode failure, validation failure, write failure); each degraded to
	// a cold build.
	Corrupt int `json:"corrupt"`
	// CheckpointsSaved counts budget-exhaustion checkpoints persisted.
	CheckpointsSaved int `json:"checkpoints_saved"`
	// Resumes counts explorations continued from a saved checkpoint.
	Resumes int `json:"resumes"`
	// Quarantined counts unreadable entries renamed aside (self-healing:
	// the entry can never block a cold rebuild again).
	Quarantined int `json:"quarantined"`
	// TempSwept counts orphaned temp files removed at cache open.
	TempSwept int `json:"temp_swept"`
	// GCRemoved counts files deleted by garbage collection (size-bound
	// evictions plus junk cleanup).
	GCRemoved int `json:"gc_removed"`
	// Retries counts transient write failures absorbed by the bounded
	// retry-with-backoff path.
	Retries int `json:"retries"`
}

func (c CacheStats) any() bool {
	return c != CacheStats{}
}

// ReductionReport summarizes symmetry reduction over one run, summed across
// every exploration that ran with an active reduce.Config.
type ReductionReport struct {
	// RemovedPORStates is always 0, as is RemovedPORSuccs: under the keys
	// ample_states and ample_succs they counted partial-order (ample-set)
	// expansions, a reduction that has been removed. The keys stay, in
	// their order, so that readers of schema_version 7 keep parsing
	// reports; they go with the next schema bump.
	RemovedPORStates int64 `json:"ample_states"`
	// FullStates counts the expanded states.
	FullStates int64 `json:"full_states"`
	// RemovedPORSuccs is always 0 (see RemovedPORStates).
	RemovedPORSuccs int64 `json:"ample_succs"`
	// FullSuccs counts the successors the expanded states produced.
	FullSuccs int64 `json:"full_succs"`
	// SymCollapsed counts successors rewritten to a distinct canonical
	// representative by symmetry canonicalization.
	SymCollapsed int64 `json:"sym_collapsed"`
}

// VetReport summarizes a static-analysis pre-check (package vet) inside a
// run report.
type VetReport struct {
	// Mode is the -vet mode the run used ("strict" or "warn").
	Mode string `json:"mode"`
	// Errors, Warnings, and Infos count diagnostics by severity.
	Errors   int `json:"errors"`
	Warnings int `json:"warnings"`
	Infos    int `json:"infos"`
	// Diagnostics lists the individual findings, in analyzer order.
	Diagnostics []VetDiagnostic `json:"diagnostics,omitempty"`
	// Bound is the semantic pass's state-space cardinality upper bound,
	// present when the analysis inferred one.
	Bound *VetBound `json:"bound,omitempty"`
}

// VetBound serializes the analyzer's state-space bound.
type VetBound struct {
	// Finite reports whether every variable's reachable domain is
	// provably finite.
	Finite bool `json:"finite"`
	// States is the bound itself, meaningful when Finite; the product
	// saturates at 2^64-1.
	States uint64 `json:"states"`
}

// VetDiagnostic is one serialized analyzer finding.
type VetDiagnostic struct {
	Code      string `json:"code"`
	Severity  string `json:"severity"`
	Component string `json:"component,omitempty"`
	Action    string `json:"action,omitempty"`
	Message   string `json:"message"`
	Hint      string `json:"hint,omitempty"`
}

// Hypothesis is one discharged (or failed) proof obligation.
type Hypothesis struct {
	Name   string `json:"name"`
	Holds  bool   `json:"holds"`
	Detail string `json:"detail,omitempty"`
}

// Span is one node of the serialized phase tree.
type Span struct {
	Name string `json:"name"`
	// StartMS is the span's start relative to the recorder's start.
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Stats   Stats   `json:"stats"`
	// Open marks a span that never closed (the run aborted inside it).
	Open     bool    `json:"open,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// EventJSON is one serialized flight-recorder entry.
type EventJSON struct {
	TMS  float64 `json:"t_ms"`
	Kind string  `json:"kind"`
	Msg  string  `json:"msg"`
}

func statsJSON(s engine.RunStats) Stats {
	return Stats{
		States:       s.States,
		Transitions:  s.Transitions,
		SCCs:         s.SCCs,
		PeakFrontier: s.PeakFrontier,
		ElapsedMS:    ms(s.Elapsed),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (r *Recorder) spanJSON(s *span) *Span {
	end, statsEnd := s.end, s.statsEnd
	if s.open {
		// The run aborted inside this span; snapshot it now.
		end, statsEnd = r.now(), r.meter.Stats()
	}
	out := &Span{
		Name:    s.name,
		StartMS: ms(s.start.Sub(r.start)),
		DurMS:   ms(end.Sub(s.start)),
		Open:    s.open,
		Stats: Stats{
			States:       statsEnd.States - s.statsStart.States,
			Transitions:  statsEnd.Transitions - s.statsStart.Transitions,
			SCCs:         statsEnd.SCCs - s.statsStart.SCCs,
			PeakFrontier: statsEnd.PeakFrontier,
			ElapsedMS:    ms(statsEnd.Elapsed - s.statsStart.Elapsed),
		},
	}
	for _, c := range s.children {
		out.Children = append(out.Children, r.spanJSON(c))
	}
	return out
}

// Finish closes the root span and assembles the run report. The flight
// recorder is dumped into the report when the verdict is Unknown, so
// exhausted and panicked runs stay diagnosable. Nil-safe: a nil recorder
// yields a minimal report with no span tree.
func (r *Recorder) Finish(tool string, cfg Config, v engine.Verdict, unknownReason string) *Report {
	rep := &Report{
		SchemaVersion: SchemaVersion,
		Tool:          tool,
		Config:        cfg,
		Build:         buildInfo(),
		Verdict:       v.String(),
		UnknownReason: unknownReason,
		GeneratedUnix: time.Now().Unix(),
	}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	if r.root.open {
		r.root.end = r.now()
		r.root.statsEnd = r.meter.Stats()
		r.root.open = false
	}
	rep.ExhaustedPhase = r.exhausted
	rep.Span = r.spanJSON(r.root)
	r.mu.Unlock()
	rep.Stats = statsJSON(r.meter.Stats())
	if cs := r.CacheStats(); cs.any() {
		rep.Cache = &cs
	}
	if rs := r.Reduction(); rs != (ReductionStats{}) {
		rep.Reduction = &ReductionReport{
			FullStates:   rs.FullStates,
			FullSuccs:    rs.FullSuccs,
			SymCollapsed: rs.SymCollapsed,
		}
	}
	rep.Metrics = r.Points()
	if v == engine.Unknown {
		for _, e := range r.Events() {
			rep.Events = append(rep.Events, EventJSON{TMS: ms(e.T), Kind: e.Kind, Msg: e.Msg})
		}
	}
	return rep
}

func buildInfo() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		bi.Module = info.Main.Path
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				bi.Revision = s.Value
			}
		}
	}
	return bi
}

// Normalize zeroes every wall-clock-dependent field of the report so two
// reports of the same run are byte-identical: generation time, build info,
// and the meter-elapsed milliseconds of every stats block. Span start/dur
// and event times are kept (they come from the recorder clock, which tests
// inject). Used by the golden-file schema test and by diff tooling.
func (rep *Report) Normalize() {
	rep.GeneratedUnix = 0
	rep.Build = BuildInfo{}
	rep.Stats.ElapsedMS = 0
	var walk func(s *Span)
	walk = func(s *Span) {
		if s == nil {
			return
		}
		s.Stats.ElapsedMS = 0
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(rep.Span)
}

// Marshal renders the report as indented JSON with a trailing newline.
func (rep *Report) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// write renders the report as Marshal does, to w.
func (rep *Report) write(w io.Writer) error {
	data, err := rep.Marshal()
	if err == nil {
		_, err = w.Write(data)
	}
	return err
}
