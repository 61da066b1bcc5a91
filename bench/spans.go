package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer keeps the traced pass's spans in memory: one per call the harness
// makes into a layer (a CLI run, a micro-benchmark repetition), plus the span
// tree each CLI run reports for itself, grafted under the run's span. All
// calls come from one goroutine, so nesting is a stack.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// begin opens a span under the innermost open one. The returned function
// closes it and returns its index.
func (t *tracer) begin(name string) func() int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.now()})
	t.open = append(t.open, id)
	return func() int {
		t.spans[id].end = t.now()
		t.open = t.open[:len(t.open)-1]
		return id
	}
}

// graft records a CLI's reported span tree under parent. The report's times
// are relative to the CLI's recorder start, which is placed at start, the
// moment the harness launched the process.
func (t *tracer) graft(parent int, start time.Duration, s *reportSpan) {
	at := func(ms float64) time.Duration { return start + time.Duration(ms*float64(time.Millisecond)) }
	id := len(t.spans)
	t.spans = append(t.spans, span{name: s.Name, parent: parent, start: at(s.StartMS), end: at(s.StartMS + s.DurMS)})
	for _, c := range s.Children {
		t.graft(id, start, c)
	}
}

// writeChrome writes the spans in Chrome Trace Event format (load it in
// Perfetto or chrome://tracing). Each event carries its parent's name and its
// self time: its duration minus the part its children cover.
func (t *tracer) writeChrome(path string) error {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"self_ms": float64(s.end-s.start-child[i]) / float64(time.Millisecond)}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		events = append(events, event{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: 1, TID: 1, Args: args})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
