package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// traceEvent is the subset of the Chrome Trace Event wire format agprof
// reads. Slice args are integers; metadata args (thread names) are strings,
// so Args stays raw and is decoded per use.
type traceEvent struct {
	Name string                     `json:"name"`
	Cat  string                     `json:"cat"`
	Ph   string                     `json:"ph"`
	TID  int64                      `json:"tid"`
	TS   float64                    `json:"ts"`  // microseconds
	Dur  float64                    `json:"dur"` // microseconds
	Args map[string]json.RawMessage `json:"args"`
}

// workerProf aggregates one worker track's slices (all times microseconds).
type workerProf struct {
	name   string
	busy   float64 // Σ "expand" durations
	wait   float64 // Σ "barrier-wait" durations
	canon  float64 // Σ canon_ns args, converted to µs
	commit float64 // Σ "commit" durations (parallel barrier phases)
}

// graphProf is one exploration's row of the per-graph table: the graph it
// built (the innermost build:/product: phase enclosing its slices) and its
// expand tallies.
type graphProf struct {
	name          string
	start         float64 // first slice, µs
	states, succs int64
	expand        float64 // Σ "expand" durations over its workers, µs
}

// profile is the attribution agprof derives from one trace.
//
// The model follows the explorer's critical path. Each BFS level is a
// parallel phase — participating workers run expand then barrier-wait
// slices ending together when the slowest worker finishes, then (since the
// barrier went parallel) "commit" slices for the partition-numbering and
// row-remap phases — interleaved with the single-threaded barrier seal on
// its own track. The level's wall span (earliest worker slice start to the
// latest end, grouped by the slices' run and level args — one process may
// run many explorations, each restarting at level 0) is allocated to the
// succgen/reduction/barrier buckets proportionally to the participants'
// lane time, so narrow levels that used fewer workers don't skew the
// shares. Seal, advance (the coordinator's step from one level to the next,
// which stretches the next level's span back to the previous one's end) and
// cache slices are single-lane and count directly. Measured wall is the sum
// of the explorations' spans plus cache I/O (which brackets them); whatever
// the buckets don't cover — the few instructions between a level's last
// slice and the next slice — is reported as the unattributed remainder.
type profile struct {
	workers []workerProf
	graphs  []graphProf // one per exploration, in run order
	runs    int         // distinct explorations seen
	levels  int         // serial seal slices seen
	wall    float64     // Σ exploration spans + cache I/O, µs

	succgen   float64 // level wall share: expansion minus canonicalization
	reduction float64 // level wall share: canonicalization
	waitAvg   float64 // level wall share: barrier wait
	commitPar float64 // level wall share: parallel commit phases
	commit    float64 // Σ barrier seal (single-threaded, counts once)
	advance   float64 // Σ steps between levels (single-threaded, counts once)
	cache     float64 // Σ cache-track slices
}

// barrier is the full barrier bucket: idle wait, the serial seal, the
// steps between levels, and the parallel commit phases.
func (p *profile) barrier() float64 { return p.waitAvg + p.commit + p.advance + p.commitPar }

// serialCommitShare is the single-threaded seal's fraction of wall — the
// Amdahl ceiling on barrier scaling, gated in CI via -max-commit-pct.
func (p *profile) serialCommitShare() float64 {
	if p.wall <= 0 {
		return 0
	}
	return p.commit / p.wall
}

// attributed is the wall share the four buckets explain.
func (p *profile) attributed() float64 {
	return p.succgen + p.reduction + p.barrier() + p.cache
}

// loadTrace parses a -trace capture and derives its profile.
func loadTrace(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseTrace(path, raw)
}

// parseTrace derives the profile of the trace raw, read from the file
// named name. Malformed input is an error.
func parseTrace(name string, raw []byte) (*profile, error) {
	var wire struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, fmt.Errorf("%s: not a trace JSON: %w", name, err)
	}
	return analyze(wire.TraceEvents)
}

// analyze buckets a trace's slices (see profile for the attribution model).
func analyze(events []traceEvent) (*profile, error) {
	names := map[int64]string{} // tid → track name
	for _, e := range events {
		if e.Ph == "M" && e.Name == "thread_name" {
			var n string
			json.Unmarshal(e.Args["name"], &n)
			names[e.TID] = n
		}
	}

	p := &profile{}
	byWorker := map[int64]*workerProf{}
	type span struct{ start, end float64 }
	grow := func(spans map[[2]int64]*span, key [2]int64, e traceEvent) {
		d := spans[key]
		if d == nil {
			spans[key] = &span{start: e.TS, end: e.TS + e.Dur}
			return
		}
		if e.TS < d.start {
			d.start = e.TS
		}
		if end := e.TS + e.Dur; end > d.end {
			d.end = end
		}
	}
	intArg := func(e traceEvent, name string) int64 {
		var v int64
		json.Unmarshal(e.Args[name], &v)
		return v
	}
	drains := map[[2]int64]*span{} // {run, level} → level wall span (worker lanes)
	runs := map[[2]int64]*span{}   // {run, 0}     → whole-exploration span
	graphs := map[int64]*graphProf{}
	var phases []traceEvent // build:/product: slices, to name the runs
	var laneBusy, laneCanon, laneWait, laneCommit float64
	slices := 0
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		slices++
		track := names[e.TID]
		isWorker := strings.HasPrefix(track, "worker ")
		switch {
		case isWorker:
			w := byWorker[e.TID]
			if w == nil {
				w = &workerProf{name: track}
				byWorker[e.TID] = w
			}
			run := intArg(e, "run")
			grow(drains, [2]int64{run, intArg(e, "level")}, e)
			grow(runs, [2]int64{run, 0}, e)
			switch e.Name {
			case "expand":
				g := graphs[run]
				if g == nil {
					g = &graphProf{start: e.TS}
					graphs[run] = g
				}
				g.start = min(g.start, e.TS)
				g.states += intArg(e, "states")
				g.succs += intArg(e, "succs")
				g.expand += e.Dur
				w.busy += e.Dur
				canon := float64(intArg(e, "canon_ns")) / 1e3
				w.canon += canon
				laneBusy += e.Dur
				laneCanon += canon
			case "barrier-wait":
				w.wait += e.Dur
				laneWait += e.Dur
			case "commit":
				w.commit += e.Dur
				laneCommit += e.Dur
			}
		case track == "barrier" && (e.Name == "commit" || e.Name == "advance"):
			if e.Name == "commit" {
				p.commit += e.Dur
				p.levels++
			} else {
				p.advance += e.Dur
			}
			grow(drains, [2]int64{intArg(e, "run"), intArg(e, "level")}, e)
			grow(runs, [2]int64{intArg(e, "run"), 0}, e)
		case track == "cache":
			p.cache += e.Dur
		case track == "phases" && (strings.HasPrefix(e.Name, "build:") || strings.HasPrefix(e.Name, "product:")):
			phases = append(phases, e)
		}
	}
	if slices == 0 {
		return nil, fmt.Errorf("no slices in trace (was it captured with -trace?)")
	}
	ids := make([]int64, 0, len(graphs))
	for id := range graphs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		g := graphs[id]
		g.name = nameRun(id, g.start, phases)
		p.graphs = append(p.graphs, *g)
	}

	var drainTotal float64
	for _, d := range drains {
		drainTotal += d.end - d.start
	}
	// The level span includes the serial seal and the advance into the
	// level (their slices grow the span); take them back out before lane
	// allocation so they aren't double-counted.
	drainTotal -= p.commit + p.advance
	if drainTotal < 0 {
		drainTotal = 0
	}
	if laneTotal := laneBusy + laneWait + laneCommit; laneTotal > 0 {
		p.succgen = drainTotal * (laneBusy - laneCanon) / laneTotal
		p.reduction = drainTotal * laneCanon / laneTotal
		p.waitAvg = drainTotal * laneWait / laneTotal
		p.commitPar = drainTotal * laneCommit / laneTotal
	}
	p.runs = len(runs)
	for _, r := range runs {
		p.wall += r.end - r.start
	}
	p.wall += p.cache

	for _, w := range byWorker {
		p.workers = append(p.workers, *w)
	}
	sort.Slice(p.workers, func(i, j int) bool { return p.workers[i].name < p.workers[j].name })
	return p, nil
}

// nameRun names exploration run by the innermost build:/product: phase
// slice enclosing its first slice, or "run N" when no phase encloses it.
func nameRun(run int64, start float64, phases []traceEvent) string {
	name, best := fmt.Sprintf("run %d", run), -1.0
	for _, ph := range phases {
		if ph.TS <= start && start <= ph.TS+ph.Dur && (best < 0 || ph.Dur < best) {
			name, best = ph.Name, ph.Dur
		}
	}
	return name
}

// reportMetrics is the slice of a run report agprof joins in: the metrics
// section (schema_version >= 6).
type reportMetrics struct {
	acquisitions int64
	contended    int64
	probes       int64
	cacheHits    int64
	cacheMisses  int64
	hotShards    []string // shard labels of contended shards, most-contended first
}

// loadReport reads the metrics of a -report file.
func loadReport(path string) (*reportMetrics, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseReport(path, raw)
}

// parseReport reads the metrics of the run report raw, read from the file
// named name. Malformed input is an error.
func parseReport(name string, raw []byte) (*reportMetrics, error) {
	var wire struct {
		SchemaVersion int `json:"schema_version"`
		Metrics       []struct {
			Name   string `json:"name"`
			Labels string `json:"labels"`
			Value  int64  `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &wire); err != nil {
		return nil, fmt.Errorf("%s: not a run report: %w", name, err)
	}
	rm := &reportMetrics{}
	type shardCount struct {
		label string
		n     int64
	}
	var shards []shardCount
	for _, m := range wire.Metrics {
		switch m.Name {
		case "opentla_store_lock_acquisitions_total":
			rm.acquisitions = m.Value
		case "opentla_store_lock_contended_total":
			if m.Labels == "" {
				rm.contended = m.Value
			} else {
				shards = append(shards, shardCount{label: m.Labels, n: m.Value})
			}
		case "opentla_store_collision_probes_total":
			rm.probes = m.Value
		case "opentla_cache_hits_total":
			rm.cacheHits = m.Value
		case "opentla_cache_misses_total":
			rm.cacheMisses = m.Value
		}
	}
	sort.Slice(shards, func(i, j int) bool {
		if shards[i].n != shards[j].n {
			return shards[i].n > shards[j].n
		}
		return shards[i].label < shards[j].label
	})
	for _, s := range shards {
		rm.hotShards = append(rm.hotShards, s.label)
	}
	return rm, nil
}

// ms renders a µs quantity as milliseconds.
func ms(us float64) string { return fmt.Sprintf("%.2fms", us/1e3) }

// pct renders part as a percentage of whole (0 when whole is 0).
func pct(part, whole float64) string {
	if whole <= 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*part/whole)
}

// printProfile renders the analysis: per-worker utilization over the workers
// that did work (idle workers' tracks are suppressed at trace-write time and
// never reach the profile), then the four buckets ranked by wall share, then
// (with a report) contention counters.
func printProfile(w io.Writer, p *profile, rep *reportMetrics) {
	fmt.Fprintf(w, "agprof: %d workers, %d explorations, %d levels, wall %s\n\n",
		len(p.workers), p.runs, p.levels, ms(p.wall))

	var busyTotal float64
	fmt.Fprintln(w, "per-worker utilization:")
	for _, wp := range p.workers {
		line := fmt.Sprintf("  %-10s busy %-7s barrier-wait %-7s commit %s",
			wp.name, pct(wp.busy, p.wall), pct(wp.wait, p.wall), pct(wp.commit, p.wall))
		if wp.canon > 0 {
			line += fmt.Sprintf("  (canon %s)", pct(wp.canon, p.wall))
		}
		fmt.Fprintln(w, line)
		busyTotal += wp.busy + wp.commit
	}
	fmt.Fprintf(w, "  mean utilization: %s over %d active workers\n",
		pct(busyTotal, float64(len(p.workers))*p.wall), len(p.workers))

	if len(p.graphs) > 0 {
		width := 0
		for _, g := range p.graphs {
			width = max(width, len(g.name))
		}
		fmt.Fprintln(w, "\nper-graph exploration (states, successors per state, expand time):")
		for _, g := range p.graphs {
			perState := 0.0
			if g.states > 0 {
				perState = float64(g.succs) / float64(g.states)
			}
			fmt.Fprintf(w, "  %-*s %9d %7.2f %s\n", width, g.name, g.states, perState, ms(g.expand))
		}
	}

	type bucket struct {
		name   string
		us     float64
		detail string
	}
	buckets := []bucket{
		{"successor generation", p.succgen, ""},
		{"barrier", p.barrier(), fmt.Sprintf("(wait %s, serial seal %s, advance %s, parallel commit %s)",
			pct(p.waitAvg, p.wall), pct(p.commit, p.wall), pct(p.advance, p.wall), pct(p.commitPar, p.wall))},
		{"reduction", p.reduction, "(canonicalization)"},
		{"cache", p.cache, ""},
	}
	sort.SliceStable(buckets, func(i, j int) bool { return buckets[i].us > buckets[j].us })

	fmt.Fprintln(w, "\nbottleneck attribution (% of wall):")
	for i, b := range buckets {
		line := fmt.Sprintf("  %d. %-21s %-7s", i+1, b.name, pct(b.us, p.wall))
		if b.detail != "" {
			line += " " + b.detail
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  attributed: %s of wall\n", pct(p.attributed(), p.wall))
	fmt.Fprintf(w, "  serial commit share: %s of wall\n", pct(p.commit, p.wall))

	if rep == nil {
		return
	}
	fmt.Fprintln(w, "\nfrom report metrics:")
	fmt.Fprintf(w, "  store locks: %d acquisitions, %d contended (%s), %d collision probes\n",
		rep.acquisitions, rep.contended, pct(float64(rep.contended), float64(rep.acquisitions)), rep.probes)
	if len(rep.hotShards) > 0 {
		n := len(rep.hotShards)
		if n > 4 {
			n = 4
		}
		fmt.Fprintf(w, "  hot shards:  %s\n", strings.Join(rep.hotShards[:n], ", "))
	}
	fmt.Fprintf(w, "  graph cache: %d hits, %d misses\n", rep.cacheHits, rep.cacheMisses)
}
