package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, fmt.Errorf("%s holds no workload results", path)
	}
	return &r, nil
}

// change is the relative change from a to b.
func change(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// spread is a stat's quartile distance as a share of its median.
func spread(s stat) float64 {
	switch {
	case s.Q3 == s.Q1:
		return 0
	case s.Median == 0:
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// compare prints, for every workload and end-to-end metric in two results
// files, the change of the median from set a to set b against the metric's
// bound in BENCHMARK.json. Metrics BENCHMARK.json does not bound
// (states_explored, fail_rate) must match exactly. A metric whose quartile
// spread exceeds its bound in either set is unresolved: the sets cannot tell
// it apart at that bound. The exit status is 1 when a resolved metric
// differs by more than its bound, or a workload is missing from b.
func compare(d *declared, a, b string, w io.Writer) (int, error) {
	ra, err := loadResults(a)
	if err != nil {
		return 2, err
	}
	rb, err := loadResults(b)
	if err != nil {
		return 2, err
	}
	warnSteal(ra.Host)
	warnSteal(rb.Host)
	bounds := map[string]declaredMetric{}
	for _, m := range d.EndToEnd {
		bounds[m.Name] = m
	}
	names := make([]string, 0, len(ra.Workloads))
	for n := range ra.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	code := 0
	fmt.Fprintf(w, "%-11s %-16s %12s %12s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, n := range names {
		wb, ok := rb.Workloads[n]
		if !ok {
			fmt.Fprintf(w, "%-11s missing from %s\n", n, b)
			code = 1
			continue
		}
		for _, m := range endToEnd {
			sa, sb := ra.Workloads[n].EndToEnd[m.name], wb.EndToEnd[m.name]
			bound := bounds[m.name].Bound // 0, exact, when undeclared
			delta := change(sa.Median, sb.Median)
			verdict := "agree"
			switch sp := math.Max(spread(sa), spread(sb)); {
			case sp > bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% > bound)", 100*sp)
			case math.Abs(delta) > bound:
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Fprintf(w, "%-11s %-16s %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n", n, m.name, sa.Median, sb.Median, 100*delta, 100*bound, verdict)
		}
	}
	return code, nil
}
