package ts

import (
	"strconv"
	"sync/atomic"
	"time"

	"opentla/internal/engine"
	"opentla/internal/metrics"
	"opentla/internal/trace"
)

// exploreSeq numbers the explorations of one process (graph builds, monitor
// products). Each exploration tags its slices with a "run" arg so trace
// analysis can group per-level timings per exploration — BFS levels restart
// at 0 in every build, so the level arg alone is ambiguous.
var exploreSeq atomic.Int64

// exploreTelemetry is the per-exploration performance-telemetry bundle: one
// trace track per BFS worker, a barrier track for the single-threaded commit
// work, and the contention-analysis instruments. It exists only when the
// meter's observer carries a tracer or a metric registry (see internal/obs);
// a nil *exploreTelemetry keeps the explorer's hot paths at one pointer
// check, which is what the telemetry overhead gate pins.
//
// Concurrency: each worker writes only its own tracks[wid] slice buffer and
// drainEnd[wid] slot (single-writer, distinct indices); the coordinator reads
// them in barrierDone only after the level's WaitGroup barrier, which
// provides the happens-before edge. Counters and histograms are atomic.
type exploreTelemetry struct {
	run     int64          // this exploration's exploreSeq number
	tracks  []*trace.Track // one per worker id; nil entries are no-ops
	barrier *trace.Track

	barrierWait *metrics.Histogram
	workerBusy  *metrics.Counter
	canonNS     *metrics.Counter
	commitNS    *metrics.Counter
	commitParNS *metrics.Counter
	levels      *metrics.Counter

	// drainEnd[wid] is when worker wid finished draining the current level;
	// the gap to the slowest worker is its barrier wait.
	drainEnd []time.Time
}

// newExploreTelemetry builds the telemetry bundle for one exploration, or
// returns nil when neither a tracer nor a registry is attached to the meter.
// Worker tracks are created upfront for the full pool so the trace always
// shows one row per configured worker, even when narrow levels use fewer.
func newExploreTelemetry(m *engine.Meter, workers int) *exploreTelemetry {
	tr := trace.FromMeter(m)
	reg := metrics.FromMeter(m)
	if tr == nil && reg == nil {
		return nil
	}
	et := &exploreTelemetry{
		run:      exploreSeq.Add(1),
		tracks:   make([]*trace.Track, workers),
		drainEnd: make([]time.Time, workers),
	}
	for wid := range et.tracks {
		et.tracks[wid] = tr.Track("worker " + strconv.Itoa(wid))
	}
	et.barrier = tr.Track("barrier")
	if reg != nil {
		et.barrierWait = reg.Histogram("opentla_barrier_wait_nanoseconds",
			"per-worker idle time at level barriers, waiting for the slowest worker", nil)
		et.workerBusy = reg.Counter("opentla_worker_busy_nanoseconds_total",
			"time workers spent draining frontier chunks (successor generation + canonicalization)")
		et.canonNS = reg.Counter("opentla_canon_nanoseconds_total",
			"time spent canonicalizing successors under symmetry reduction")
		et.commitNS = reg.Counter("opentla_barrier_commit_nanoseconds_total",
			"single-threaded time sealing level barriers (partition bases, array growth, CSR offsets prefix sum)")
		et.commitParNS = reg.Counter("opentla_barrier_parallel_commit_nanoseconds_total",
			"aggregate worker time in the parallel commit phases (partition numbering + CSR row remap)")
		et.levels = reg.Counter("opentla_levels_total", "level barriers completed")
		reg.Gauge("opentla_workers", "worker pool size of the latest exploration").
			Set(int64(workers))
	}
	return et
}

// endDrain closes one worker's share of a level: an "expand" slice on its
// track carrying the level's tallies, plus busy/canonicalization counters.
// Called by each worker for itself, concurrently with other workers.
func (et *exploreTelemetry) endDrain(wid, level int, ws *workerScratch, start time.Time) {
	end := time.Now()
	et.drainEnd[wid] = end
	et.tracks[wid].Slice("explore", "expand", start, end,
		trace.KV{K: "run", V: et.run},
		trace.KV{K: "level", V: int64(level)},
		trace.KV{K: "states", V: ws.levelStates},
		trace.KV{K: "succs", V: ws.levelSuccs},
		trace.KV{K: "canon_ns", V: ws.levelCanonNS})
	et.workerBusy.Add(end.Sub(start).Nanoseconds())
	et.canonNS.Add(ws.levelCanonNS)
}

// barrierDone records the serial section of one level barrier: each
// participating worker's idle wait (from its own drain end until the slowest
// worker finished) and the single-threaded seal span (partition bases, array
// growth, CSR offsets prefix sum). Called by the coordinator after the seal;
// the parallel commit phases that follow report per worker through
// endCommitPhase.
func (et *exploreTelemetry) barrierDone(level, w int, drainDone, sealEnd time.Time) {
	runKV := trace.KV{K: "run", V: et.run}
	lvl := trace.KV{K: "level", V: int64(level)}
	for wid := 0; wid < w; wid++ {
		end := et.drainEnd[wid]
		wait := drainDone.Sub(end).Nanoseconds()
		if wait < 0 {
			wait = 0
		}
		et.barrierWait.Observe(wait)
		et.tracks[wid].Slice("explore", "barrier-wait", end, drainDone, runKV, lvl)
	}
	et.barrier.Slice("explore", "commit", drainDone, sealEnd, runKV, lvl)
	et.commitNS.Add(sealEnd.Sub(drainDone).Nanoseconds())
}

// endCommitPhase records one worker's share of a parallel commit phase
// (partition numbering or CSR row remap) as a "commit" slice on its own
// track. Called by each worker for itself, concurrently with other workers.
func (et *exploreTelemetry) endCommitPhase(wid, level int, start time.Time) {
	end := time.Now()
	et.tracks[wid].Slice("explore", "commit", start, end,
		trace.KV{K: "run", V: et.run},
		trace.KV{K: "level", V: int64(level)})
	et.commitParNS.Add(end.Sub(start).Nanoseconds())
}

// levelDone counts one fully committed level barrier.
func (et *exploreTelemetry) levelDone() {
	et.levels.Inc()
}

// observeCacheOp records one graph-cache operation (load/store/checkpoint) as
// a slice on the trace's "cache" track and an observation in the op's latency
// histogram. With no telemetry attached the cost is the caller's time.Now.
func observeCacheOp(m *engine.Meter, op string, start time.Time) {
	tr := trace.FromMeter(m)
	reg := metrics.FromMeter(m)
	if tr == nil && reg == nil {
		return
	}
	end := time.Now()
	tr.Track("cache").Slice("cache", op, start, end)
	reg.Histogram("opentla_cache_"+op+"_nanoseconds", "graph cache "+op+" latency", nil).
		Observe(end.Sub(start).Nanoseconds())
}

// noteReductionMetrics exports one exploration's reduction statistics as
// counters: the states expanded, their successors, and the successors
// symmetry redirected to an orbit representative.
func noteReductionMetrics(m *engine.Meter, st engine.ReductionStats) {
	reg := metrics.FromMeter(m)
	if reg == nil {
		return
	}
	reg.Counter("opentla_reduce_full_states_total",
		"states expanded under reduction").Add(st.FullStates)
	reg.Counter("opentla_reduce_full_succs_total",
		"successors emitted by full expansion under reduction").Add(st.FullSuccs)
	reg.Counter("opentla_reduce_sym_collapsed_total",
		"successor slots redirected to a symmetry orbit representative").Add(st.SymCollapsed)
}
