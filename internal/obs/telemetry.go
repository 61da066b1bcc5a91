package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// The telemetry half of the recorder: the fixed set of counters, the one
// gauge and the four latency histograms the explorer writes, and the
// per-worker timeline tracks. All of it is recorded only when telemetry is
// on (EnableTelemetry); the report's metrics section, -metrics-out and
// -trace are renderings of it.

// Counters the explorer writes, in no particular order; counterInfo names
// them for export.
const (
	cWorkerBusy = iota
	cCanon
	cCommit
	cCommitPar
	cLevels
	cAcquisitions
	cContended
	cProbes
	numCounters
)

var counterInfo = [numCounters]struct{ name, help string }{
	cWorkerBusy:   {"opentla_worker_busy_nanoseconds_total", "time workers spent draining frontier chunks (successor generation + canonicalization)"},
	cCanon:        {"opentla_canon_nanoseconds_total", "time spent canonicalizing successors under symmetry reduction"},
	cCommit:       {"opentla_barrier_commit_nanoseconds_total", "single-threaded time sealing level barriers (partition bases, array growth, CSR offsets prefix sum)"},
	cCommitPar:    {"opentla_barrier_parallel_commit_nanoseconds_total", "aggregate worker time in the parallel commit phases (partition numbering + CSR row remap)"},
	cLevels:       {"opentla_levels_total", "level barriers completed"},
	cAcquisitions: {"opentla_store_lock_acquisitions_total", "store shard-lock acquisitions"},
	cContended:    {"opentla_store_lock_contended_total", "store shard-lock acquisitions that had to block"},
	cProbes:       {"opentla_store_collision_probes_total", "structural-equality probes inside fingerprint buckets"},
}

// Latency histograms: the barrier wait of each worker at each level, and
// one per graph-cache operation.
const (
	hBarrierWait = iota
	hCacheLoad
	hCacheStore
	hCacheCheckpoint
	numHistograms
)

var histogramInfo = [numHistograms]struct{ name, help string }{
	hBarrierWait:     {"opentla_barrier_wait_nanoseconds", "per-worker idle time at level barriers, waiting for the slowest worker"},
	hCacheLoad:       {"opentla_cache_load_nanoseconds", "graph cache load latency"},
	hCacheStore:      {"opentla_cache_store_nanoseconds", "graph cache store latency"},
	hCacheCheckpoint: {"opentla_cache_checkpoint_nanoseconds", "graph cache checkpoint latency"},
}

// cacheHistogram maps a CacheOp operation to its histogram.
var cacheHistogram = map[string]int{"load": hCacheLoad, "store": hCacheStore, "checkpoint": hCacheCheckpoint}

// durationBounds are the histogram bucket upper bounds in nanoseconds: 1µs
// to 10s by decades (+Inf is implicit), from a single store probe to a
// stalled cache load.
var durationBounds = [...]int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// histogram counts each bucket's own interval, so observe is three atomic
// adds; buckets are made cumulative at export.
type histogram struct {
	buckets    [len(durationBounds) + 1]atomic.Int64
	sum, count atomic.Int64
}

func (h *histogram) observe(v int64) {
	i := sort.Search(len(durationBounds), func(i int) bool { return v <= durationBounds[i] })
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// kv is one integer slice argument, e.g. {"level", 12}.
type kv struct {
	k string
	v int64
}

type event struct {
	name, cat  string
	start, dur int64 // ns since the recorder started
	args       []kv
}

// track is one timeline row of the trace. Worker and barrier tracks have a
// single writer at a time (the frontier barrier orders one level's writes
// before the next level's); the phases and cache tracks are written under
// the recorder's lock.
type track struct {
	tid    int64
	name   string
	events []event
}

func (tk *track) add(origin time.Time, cat, name string, start, end time.Time, args ...kv) {
	tk.events = append(tk.events, event{
		name: name, cat: cat,
		start: start.Sub(origin).Nanoseconds(),
		dur:   max(end.Sub(start).Nanoseconds(), 0),
		args:  args,
	})
}

// trackLocked returns the named track, creating it on first use; tids
// follow creation order. Caller holds r.mu.
func (r *Recorder) trackLocked(name string) *track {
	for _, tk := range r.tracks {
		if tk.name == name {
			return tk
		}
	}
	tk := &track{tid: int64(len(r.tracks)), name: name}
	r.tracks = append(r.tracks, tk)
	return tk
}

// Exploration is the telemetry handle of one graph exploration (a build or
// a monitor product): one track per worker, the barrier track, and each
// worker's drain end for its barrier wait. Recorder.Explore hands one out
// only when telemetry is on.
//
// Concurrency: each worker writes only its own track and drainEnd slot;
// the coordinator reads them in BarrierDone after the level's barrier.
type Exploration struct {
	r        *Recorder
	run      int64 // this exploration's ordinal in the run
	tracks   []*track
	barrier  *track
	drainEnd []time.Time
}

// Explore opens the telemetry of one exploration over a pool of workers,
// or returns nil when the recorder is nil or telemetry is off. Worker
// tracks are created for the whole pool up front, so they keep their
// order at the top of the timeline.
func (r *Recorder) Explore(workers int) *Exploration {
	if r == nil || !r.telemetry {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.explorations++
	e := &Exploration{r: r, run: int64(r.explorations), tracks: make([]*track, workers), drainEnd: make([]time.Time, workers)}
	for wid := range e.tracks {
		e.tracks[wid] = r.trackLocked("worker " + strconv.Itoa(wid))
	}
	e.barrier = r.trackLocked("barrier")
	r.poolWorkers.Store(int64(workers))
	return e
}

// EndDrain closes one worker's share of a level: an "expand" slice with the
// level's tallies (states expanded, successors emitted, canonicalization
// time) and the busy and canonicalization counters. Each worker calls it
// for itself.
func (e *Exploration) EndDrain(wid, level int, states, succs, canonNS int64, start time.Time) {
	end := time.Now()
	e.drainEnd[wid] = end
	e.tracks[wid].add(e.r.start, "explore", "expand", start, end,
		kv{"run", e.run}, kv{"level", int64(level)}, kv{"states", states}, kv{"succs", succs}, kv{"canon_ns", canonNS})
	e.r.counters[cWorkerBusy].Add(end.Sub(start).Nanoseconds())
	e.r.counters[cCanon].Add(canonNS)
}

// BarrierDone records the serial section of one level barrier: each of the
// w participating workers' wait from its own drain end until the slowest
// finished, and the coordinator's single-threaded seal.
func (e *Exploration) BarrierDone(level, w int, drainDone, sealEnd time.Time) {
	run, lvl := kv{"run", e.run}, kv{"level", int64(level)}
	for wid, end := range e.drainEnd[:w] {
		e.r.histograms[hBarrierWait].observe(max(drainDone.Sub(end).Nanoseconds(), 0))
		e.tracks[wid].add(e.r.start, "explore", "barrier-wait", end, drainDone, run, lvl)
	}
	e.barrier.add(e.r.start, "explore", "commit", drainDone, sealEnd, run, lvl)
	e.r.counters[cCommit].Add(sealEnd.Sub(drainDone).Nanoseconds())
}

// EndCommit records one worker's share of a parallel commit phase as a
// "commit" slice. Each worker calls it for itself.
func (e *Exploration) EndCommit(wid, level int, start time.Time) {
	end := time.Now()
	e.tracks[wid].add(e.r.start, "explore", "commit", start, end, kv{"run", e.run}, kv{"level", int64(level)})
	e.r.counters[cCommitPar].Add(end.Sub(start).Nanoseconds())
}

// StoreCounts adds the exploration's state-store tallies: shard-lock
// acquisitions, those that had to block (in total and per shard index), and
// structural-equality probes. Nil-safe.
func (e *Exploration) StoreCounts(acquisitions, contended, probes int64, contendedByShard []int64) {
	if e == nil {
		return
	}
	r := e.r
	r.counters[cAcquisitions].Add(acquisitions)
	r.counters[cContended].Add(contended)
	r.counters[cProbes].Add(probes)
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.contendedByShard) < len(contendedByShard) {
		r.contendedByShard = append(r.contendedByShard, 0)
	}
	for i, n := range contendedByShard {
		r.contendedByShard[i] += n
	}
}

// CacheOp records one graph-cache operation ("load", "store" or
// "checkpoint") that began at start and ends now: a slice on the "cache"
// track and an observation in the operation's latency histogram. No-op
// unless telemetry is on.
func (r *Recorder) CacheOp(op string, start time.Time) {
	if r == nil || !r.telemetry {
		return
	}
	end := time.Now()
	r.histograms[cacheHistogram[op]].observe(end.Sub(start).Nanoseconds())
	r.mu.Lock()
	r.trackLocked("cache").add(r.start, "cache", op, start, end)
	r.mu.Unlock()
}

// Bucket is one histogram bucket of a Point: the cumulative count of
// observations <= UpperNS; the +Inf bucket has a nil UpperNS.
type Bucket struct {
	UpperNS *int64 `json:"le_ns"`
	Count   int64  `json:"count"`
}

// Point is one exported metric sample, the JSON shape of the report's
// metrics section. Counters and the gauge use Value; histograms use
// Count/Sum/Buckets.
type Point struct {
	Name    string   `json:"name"`
	Labels  string   `json:"labels,omitempty"`
	Type    string   `json:"type"` // "counter" | "gauge" | "histogram"
	Help    string   `json:"help,omitempty"`
	Value   int64    `json:"value,omitempty"`
	Count   int64    `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Points renders the telemetry as metric samples sorted by (name, labels),
// or nil when telemetry is off. A series exists once its layer ran:
// the exploration series after the first exploration, a cache histogram
// after its first operation, the reduction counters once a reduced
// exploration reported, hits and misses once nonzero.
//
// Two series are views of the report's records rather than counters of
// their own. opentla_cache_hits_total is the report's cache.hits.
// opentla_cache_misses_total is every cache load that did not hit, so it
// also counts the unusable entries the report keeps apart as
// cache.corrupt (a corrupt entry sends the build cold, just as a missing
// one does); checkpoint and store failures are in cache.corrupt only.
func (r *Recorder) Points() []Point {
	if r == nil || !r.telemetry {
		return nil
	}
	r.mu.Lock()
	explored, cs, rd := r.explorations > 0, r.cache, r.reduction
	byShard := append([]int64(nil), r.contendedByShard...)
	r.mu.Unlock()

	var pts []Point
	counter := func(name, help, labels string, v int64) {
		pts = append(pts, Point{Name: name, Labels: labels, Type: "counter", Help: help, Value: v})
	}
	addHistogram := func(i int) {
		h := &r.histograms[i]
		p := Point{Name: histogramInfo[i].name, Type: "histogram", Help: histogramInfo[i].help, Count: h.count.Load(), Sum: h.sum.Load()}
		var cum int64
		for b := range h.buckets {
			cum += h.buckets[b].Load()
			bk := Bucket{Count: cum}
			if b < len(durationBounds) {
				ub := durationBounds[b]
				bk.UpperNS = &ub
			}
			p.Buckets = append(p.Buckets, bk)
		}
		pts = append(pts, p)
	}
	if explored {
		for i, c := range counterInfo {
			counter(c.name, c.help, "", r.counters[i].Load())
		}
		for shard, n := range byShard {
			if n > 0 {
				counter(counterInfo[cContended].name, counterInfo[cContended].help, fmt.Sprintf("shard=%q", strconv.Itoa(shard)), n)
			}
		}
		pts = append(pts, Point{Name: "opentla_workers", Type: "gauge", Help: "worker pool size of the latest exploration", Value: r.poolWorkers.Load()})
		addHistogram(hBarrierWait)
	}
	for _, i := range []int{hCacheLoad, hCacheStore, hCacheCheckpoint} {
		if r.histograms[i].count.Load() > 0 {
			addHistogram(i)
		}
	}
	if cs.Hits > 0 {
		counter("opentla_cache_hits_total", "graph cache lookups satisfied by a cached graph", "", int64(cs.Hits))
	}
	if misses := r.histograms[hCacheLoad].count.Load() - int64(cs.Hits); misses > 0 {
		counter("opentla_cache_misses_total", "graph cache lookups that went to a cold build", "", misses)
	}
	if rd != (ReductionStats{}) {
		counter("opentla_reduce_full_states_total", "states expanded under reduction", "", rd.FullStates)
		counter("opentla_reduce_full_succs_total", "successors emitted by full expansion under reduction", "", rd.FullSuccs)
		counter("opentla_reduce_sym_collapsed_total", "successor slots redirected to a symmetry orbit representative", "", rd.SymCollapsed)
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Name != pts[j].Name {
			return pts[i].Name < pts[j].Name
		}
		return pts[i].Labels < pts[j].Labels
	})
	return pts
}

// WritePrometheus renders Points in Prometheus text exposition format
// (version 0.0.4): `# HELP` / `# TYPE` per family, `_bucket{le=}` / `_sum`
// / `_count` samples for histograms. A run that recorded no series writes
// one comment line, so the file is never empty. Nil-safe.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	pts := r.Points()
	if len(pts) == 0 {
		fmt.Fprintln(bw, "# no series recorded")
	}
	var lastFamily string
	for _, p := range pts {
		if p.Name != lastFamily {
			fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", p.Name, p.Help, p.Name, p.Type)
			lastFamily = p.Name
		}
		switch {
		case p.Type == "histogram":
			for _, b := range p.Buckets {
				le := "+Inf"
				if b.UpperNS != nil {
					le = strconv.FormatInt(*b.UpperNS, 10)
				}
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", p.Name, le, b.Count)
			}
			fmt.Fprintf(bw, "%s_sum %d\n%s_count %d\n", p.Name, p.Sum, p.Name, p.Count)
		case p.Labels != "":
			fmt.Fprintf(bw, "%s{%s} %d\n", p.Name, p.Labels, p.Value)
		default:
			fmt.Fprintf(bw, "%s %d\n", p.Name, p.Value)
		}
	}
	return bw.Flush()
}

// traceEvent is the Chrome Trace Event wire shape: ph "M" events name the
// process and threads (string args), ph "X" events are complete slices
// with ts/dur in microseconds (integer args).
type traceEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat,omitempty"`
	Ph   string   `json:"ph"`
	PID  int      `json:"pid"`
	TID  int64    `json:"tid"`
	TS   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Args any      `json:"args,omitempty"`
}

// WriteTrace renders the tracks as Chrome Trace Event JSON, loadable in
// Perfetto or chrome://tracing: one thread_name event per track, then
// every slice in (tid, start) order. A track with no slices is left out:
// a worker that never ran would otherwise show as an empty row and skew
// per-worker utilization downstream (agprof). Nil-safe; call after the
// run's writers have finished.
func (r *Recorder) WriteTrace(w io.Writer) error {
	events := []traceEvent{{Name: "process_name", Ph: "M", PID: 1, Args: map[string]string{"name": "opentla"}}}
	var tracks []*track
	if r != nil {
		r.mu.Lock()
		for _, tk := range r.tracks {
			if len(tk.events) > 0 {
				tracks = append(tracks, tk)
			}
		}
		r.mu.Unlock()
	}
	for _, tk := range tracks {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tk.tid, Args: map[string]string{"name": tk.name}})
	}
	for _, tk := range tracks {
		for _, e := range tk.events {
			dur := float64(e.dur) / 1e3
			te := traceEvent{Name: e.name, Cat: e.cat, Ph: "X", PID: 1, TID: tk.tid, TS: float64(e.start) / 1e3, Dur: &dur}
			if len(e.args) > 0 {
				args := make(map[string]int64, len(e.args))
				for _, a := range e.args {
					args[a.k] = a.v
				}
				te.Args = args
			}
			events = append(events, te)
		}
	}
	return json.NewEncoder(w).Encode(struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}{"ms", events})
}
