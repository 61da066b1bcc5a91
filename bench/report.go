package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// reportSchema is the run-report schema_version this harness reads. It is
// pinned here rather than imported so that a schema bump in the CLIs fails
// the benchmark loudly instead of silently reading renamed fields as zero.
const reportSchema = 7

// runReport is the part of a -report run report the traced pass reads.
type runReport struct {
	SchemaVersion int `json:"schema_version"`
	Stats         struct {
		SCCs int `json:"sccs"`
	} `json:"stats"`
	Cache *struct {
		Hits    int `json:"hits"`
		Misses  int `json:"misses"`
		Retries int `json:"retries"`
	} `json:"cache"`
	Reduction *struct {
		AmpleSuccs   int64 `json:"ample_succs"`
		FullSuccs    int64 `json:"full_succs"`
		SymCollapsed int64 `json:"sym_collapsed"`
	} `json:"reduction"`
	Span *reportSpan `json:"span"`
}

type reportSpan struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Stats   struct {
		States int `json:"states"`
	} `json:"stats"`
	Children []*reportSpan `json:"children"`
}

func parseReport(data []byte) (*runReport, error) {
	var r runReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing run report: %w", err)
	}
	if r.SchemaVersion != reportSchema {
		return nil, fmt.Errorf("run report has schema_version %d, the benchmark reads %d: update bench/report.go for the new schema", r.SchemaVersion, reportSchema)
	}
	if r.Span == nil || r.Span.Name != "run" {
		return nil, fmt.Errorf("run report has no span tree rooted at \"run\"")
	}
	return &r, nil
}

// spanTotal sums the durations (seconds) and state deltas of the spans whose
// name has the given prefix, and counts them. Matching spans do not nest in
// the CLIs' span trees, so nothing is counted twice.
func (r *runReport) spanTotal(prefix string) (n int, secs float64, states int) {
	var walk func(s *reportSpan)
	walk = func(s *reportSpan) {
		if strings.HasPrefix(s.Name, prefix) {
			n++
			secs += s.DurMS / 1000
			states += s.Stats.States
			return
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(r.Span)
	return n, secs, states
}

// spanSecs is spanTotal for spans that must exist.
func (r *runReport) spanSecs(prefix string) (float64, error) {
	n, secs, _ := r.spanTotal(prefix)
	if n == 0 {
		return 0, fmt.Errorf("run report has no %q span", prefix)
	}
	return secs, nil
}

// promMetrics holds the unlabeled series of a -metrics-out file (Prometheus
// text exposition); histograms appear as their _sum and _count series.
type promMetrics map[string]float64

func parseMetrics(data []byte) (promMetrics, error) {
	out := promMetrics{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if !ok || err != nil {
			return nil, fmt.Errorf("parsing metrics: bad line %q", line)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("parsing metrics: %w", err)
	}
	return out, nil
}

// get returns a series that must be present: a missing one means the
// exposition changed, and reading it as zero would fake a perfect layer.
func (m promMetrics) get(name string) (float64, error) {
	v, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("metrics output has no series %q", name)
	}
	return v, nil
}
