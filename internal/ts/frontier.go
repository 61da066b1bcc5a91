package ts

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/state"
	"opentla/internal/store"
)

// exploreParams configures one frontier exploration (a graph build or a
// monitor product). The expand callback must be deterministic and safe for
// concurrent invocation on distinct states: it is called exactly once per
// reachable state, possibly from several worker goroutines at once.
type exploreParams struct {
	// op names the exploration for contained-panic diagnostics
	// (engine.EngineError.Op), e.g. "ts.Build(counter)".
	op string
	// workers is the goroutine pool size; <= 0 means GOMAXPROCS.
	workers int
	// limit is the legacy per-system MaxStates cap; limitName prefixes its
	// BudgetError reason ("system X", "monitor product").
	limit     int
	limitName string
	meter     *engine.Meter
	// inits seeds the exploration, in a deterministic order.
	inits []*state.State
	// expand returns the successor states of s (duplicates allowed; the
	// store dedups). Successor order must be deterministic in s.
	expand func(s *state.State) ([]*state.State, error)
	// canon, when non-nil, maps every state to the canonical representative
	// of its symmetry orbit. Seeds and successors are canonicalized before
	// interning, so the graph holds only representatives; the real (pre-
	// canonicalization) successor of every edge is preserved alongside the
	// canonical target id in edgeStates, keeping each recorded edge a
	// genuine step of the system.
	canon func(*state.State) *state.State
	// resume, when non-nil, restores a checkpoint: the committed states,
	// inits, and adjacency rows are adopted verbatim (without consuming
	// state budget — restored work was paid for by the interrupted run) and
	// the BFS continues from the saved frontier. inits is ignored.
	resume *Snapshot
	// onCheckpoint, when non-nil, receives a checkpoint snapshot of the
	// last fully committed level barrier if exploration aborts on budget
	// exhaustion. Mid-level partial work is discarded — checkpoints have
	// level granularity, so a resumed run re-expands the saved frontier and
	// rediscovers exactly the same states.
	onCheckpoint func(*Snapshot)
}

// exploreResult is the finalized, deterministic exploration outcome.
type exploreResult struct {
	states  []*state.State // numbered level-by-level, fingerprint-sorted within a level
	inits   []int          // final ids of params.inits, in seed order (deduped to first occurrence)
	idx     *store.Index   // state -> final id lookup for the finished graph
	offsets []int          // CSR row offsets, len(states)+1
	targets []int32        // CSR adjacency, offsets[i]:offsets[i+1] are i's successors
	// edgeStates, parallel to targets, holds each edge's real successor
	// state (nil when exploration ran without canon: the canonical target
	// IS the real successor).
	edgeStates []*state.State
	// expanded and emitted count the states this exploration expanded and
	// the successors they produced (restored checkpoint rows excluded);
	// symCollapsed counts successor and seed slots redirected to a
	// different canonical representative.
	expanded, emitted, symCollapsed int64
}

// explore runs a level-synchronous parallel frontier BFS over the states
// reachable from params.inits.
//
// Determinism guarantee: the returned numbering, initial-state ids, and
// adjacency are byte-identical for every worker count. States are interned
// concurrently into a sharded store (arrival order is scheduling-dependent),
// but final ids are assigned only at level barriers: the states first
// reached during a level are numbered in (fingerprint, Key) order — ties are
// genuine 64-bit collisions between distinct states, broken by the canonical
// Key string. A state's level is its BFS distance from the seed set, which
// no schedule can change, so the numbering depends only on the graph itself.
// Successor lists are produced by the deterministic expand callback and
// recorded per source state, preserving callback order.
//
// The barrier itself is parallel (the PR 9 rebuild — before it, numbering,
// remapping, and CSR commit ran single-threaded at every level and capped
// the whole exploration at ~1x sequential; Amdahl). Each level runs three
// phases on the same persistent worker pool:
//
//  1. drain: workers claim frontier chunks, expand states, dedup successors
//     against the committed index (states numbered at earlier barriers
//     resolve to their final id lock-free, without touching the store), and
//     batch-intern only the remainder. Newly interned states land in
//     per-worker per-partition buckets keyed by store.Partition(fp) — the
//     top fingerprint bits — so the barrier never re-buckets.
//  2. seal (single-threaded, deliberately tiny): per-partition counts are
//     summed into base offsets, the CSR offsets row is extended by a prefix
//     sum of known row lengths, and the states/finals/targets arrays are
//     grown. Pure arithmetic — no sorting, no hashing, no per-edge work.
//  3. commit (parallel): workers sort and number whole fingerprint
//     partitions against their precomputed bases (writing disjoint index
//     shards, finals slots, and states slots), then remap and commit their
//     own drain rows into the preallocated CSR range. Partition order is
//     fingerprint order, so concatenating sorted partitions reproduces the
//     exact global (fingerprint, Key) sort a single thread would produce.
func explore(p exploreParams) (*exploreResult, error) {
	m := p.meter
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	interned := store.New()
	// The run's recorder, if any, gets the level barriers; ex, its telemetry
	// handle, exists only with telemetry on (-trace/-metrics-out), so with it
	// off the hot paths below pay one pointer check and take no timestamps.
	rec := obs.FromMeter(m)
	ex := rec.Explore(workers)
	if ex != nil {
		defer func() {
			c := interned.Counts()
			ex.StoreCounts(c.Acquisitions, c.Contended, c.Probes, c.ContendedByShard[:])
		}()
	}
	res := &exploreResult{idx: store.NewIndex()}
	// Incrementally built CSR adjacency, committed one frontier row at a
	// time at level barriers. offsets always carries the leading 0, so
	// len(offsets)-1 is the committed row count. edgeStates (canon runs
	// only) grows in lockstep with targets.
	offsets := []int{0}
	var targets []int32
	var edgeStates []*state.State

	// finals maps interned refs (via their dense encoding) to final ids;
	// written at level barriers (disjoint slots per partition) and by the
	// single-threaded seeding below. A flat slice instead of a map: the
	// barrier does one remap lookup per edge, and dense refs grow with the
	// state count.
	finals := make([]int32, 0, 1024)
	ensureFinals := func(d int) {
		if d < len(finals) {
			return
		}
		n := len(finals)
		if d >= cap(finals) {
			grown := make([]int32, d+1, max(2*cap(finals), d+1))
			copy(grown, finals)
			finals = grown
		} else {
			finals = finals[:d+1]
		}
		for i := n; i <= d; i++ {
			finals[i] = -1
		}
	}
	setFinal := func(ref store.Ref, id int) {
		d := ref.Dense()
		ensureFinals(d)
		finals[d] = int32(id)
	}

	// Checkpoint bookkeeping: the state count, committed row count, and next
	// level as of the last clean barrier. ckStates < 0 means no consistent
	// point exists yet (mid-seeding).
	ckStates, ckRows, ckLevel := -1, 0, 0
	// fail wraps an abort: budget exhaustion emits a checkpoint of the last
	// clean barrier so a later run can resume instead of restarting.
	fail := func(err error) (*exploreResult, error) {
		if p.onCheckpoint != nil && ckStates >= 0 {
			var be *engine.BudgetError
			if errors.As(err, &be) {
				p.onCheckpoint(checkpointSnapshot(res, offsets, targets, edgeStates, ckStates, ckRows, ckLevel))
			}
		}
		return nil, err
	}

	// assignSerial numbers the seed states (fingerprint-sorted, Key-
	// tiebroken — total and schedule-independent). Level barriers use the
	// partitioned parallel path below; seeds are few and arrive before the
	// pool exists.
	assignSerial := func(news []newlyInterned) error {
		sort.Slice(news, func(i, j int) bool {
			if news[i].fp != news[j].fp {
				return news[i].fp < news[j].fp
			}
			return news[i].st.Key() < news[j].st.Key()
		})
		for _, ns := range news {
			id := len(res.states)
			res.states = append(res.states, ns.st)
			res.idx.Put(ns.st, id)
			setFinal(ns.ref, id)
		}
		if p.limit > 0 && len(res.states) > p.limit {
			return &engine.BudgetError{
				Reason: fmt.Sprintf("%s: state space exceeds MaxStates limit %d", p.limitName, p.limit),
				Stats:  m.Stats(),
			}
		}
		return nil
	}

	levelStart, level := 0, 0
	if p.resume != nil {
		// Restore the checkpoint: adopt the committed numbering, inits, and
		// adjacency verbatim. Interning in final-id order rebuilds finals and
		// the index deterministically; restored states bypass the meter so
		// budgets govern only new work, letting repeated bounded runs make
		// incremental progress.
		for i, s := range p.resume.States {
			ref, _ := interned.Intern(s)
			res.states = append(res.states, s)
			res.idx.Put(s, i)
			setFinal(ref, i)
		}
		res.inits = append(res.inits, p.resume.Inits...)
		rows := p.resume.Rows()
		offsets = append(offsets[:1], p.resume.Offsets[1:]...)
		targets = append(targets, p.resume.Targets...)
		edgeStates = append(edgeStates, p.resume.EdgeStates...)
		levelStart, level = rows, p.resume.Level
		ckStates, ckRows, ckLevel = len(res.states), rows, level
	} else {
		// Seed level 0 (canonical representatives when canon is active: the
		// graph never holds a non-representative state).
		var seedNews []newlyInterned
		seedRefs := make([]store.Ref, 0, len(p.inits))
		for _, s := range p.inits {
			if p.canon != nil {
				if c := p.canon(s); c != s {
					res.symCollapsed++
					s = c
				}
			}
			ref, added := interned.Intern(s)
			if added {
				seedNews = append(seedNews, newlyInterned{ref: ref, fp: s.Fingerprint(), st: s})
				if err := m.AddState(); err != nil {
					return nil, err
				}
			}
			seedRefs = append(seedRefs, ref)
		}
		if err := assignSerial(seedNews); err != nil {
			return nil, err
		}
		for _, ref := range seedRefs {
			res.inits = append(res.inits, int(finals[ref.Dense()]))
		}
		ckStates, ckRows, ckLevel = len(res.states), 0, 0
	}

	// The level scratch persists across levels: one levelRun handed to the
	// pool each phase round, per-worker arenas that keep their capacity.
	lv := &levelRun{
		params:  &p,
		store:   interned,
		scratch: make([]workerScratch, workers),
		lookup:  res.idx.Get,
		ex:      ex,
	}
	firstRow, firstTarget := levelStart, len(targets)

	// Persistent pool: workers 1..n-1 live for the whole exploration and
	// receive one levelRun per phase round on a private channel (so each
	// runs a phase exactly once); the coordinating goroutine doubles as
	// worker 0. One level is up to three rounds: drain, then — after the
	// single-threaded seal — the two commit phases.
	var feeds []chan *levelRun
	if workers > 1 {
		feeds = make([]chan *levelRun, workers)
		for wid := 1; wid < workers; wid++ {
			feeds[wid] = make(chan *levelRun)
			go func(wid int, feed chan *levelRun) {
				for run := range feed {
					run.work(wid)
					run.wg.Done()
				}
			}(wid, feeds[wid])
		}
		defer func() {
			for wid := 1; wid < workers; wid++ {
				close(feeds[wid])
			}
		}()
	}
	// runRound executes one phase on w workers: the coordinator always
	// doubles as worker 0, so a sequential run never touches a channel.
	runRound := func(phase int, w int) {
		lv.phase = phase
		if w <= 1 {
			lv.work(0)
			return
		}
		lv.wg.Add(w - 1)
		for wid := 1; wid < w; wid++ {
			feeds[wid] <- lv
		}
		lv.work(0)
		lv.wg.Wait()
	}

	for levelStart < len(res.states) {
		levelEnd := len(res.states)
		n := levelEnd - levelStart
		w := workers
		if w > n {
			w = n
		}
		lv.level = level
		lv.begin(res.states[levelStart:levelEnd], w)
		runRound(phaseDrain, w)
		if err := lv.firstErr(); err != nil {
			return fail(err)
		}
		var drainDone time.Time
		if ex != nil {
			drainDone = time.Now()
		}

		// Seal (single-threaded): partition bases, array growth, and the
		// CSR offsets prefix sum — the only serial section of the barrier.
		total := 0
		maxDense := -1
		for pi := 0; pi < store.NumPartitions; pi++ {
			lv.bases[pi] = levelEnd + total
			for wid := 0; wid < w; wid++ {
				total += len(lv.scratch[wid].newsPart[pi])
			}
		}
		for wid := 0; wid < w; wid++ {
			if d := lv.scratch[wid].maxDense; d > maxDense {
				maxDense = d
			}
		}
		if p.limit > 0 && levelEnd+total > p.limit {
			return fail(&engine.BudgetError{
				Reason: fmt.Sprintf("%s: state space exceeds MaxStates limit %d", p.limitName, p.limit),
				Stats:  m.Stats(),
			})
		}
		if maxDense >= 0 {
			ensureFinals(maxDense)
		}
		res.states = grow(res.states, total)
		lv.rowBase = len(offsets) - 1
		off := offsets[lv.rowBase]
		for i := range lv.rows {
			off += int(lv.rows[i].end - lv.rows[i].start)
			offsets = append(offsets, off)
		}
		targets = grow(targets, off-len(targets))
		if p.canon != nil {
			edgeStates = grow(edgeStates, off-len(edgeStates))
		}
		lv.finals, lv.states, lv.idx = finals, res.states, res.idx
		lv.offsets, lv.targets, lv.edgeStates = offsets, targets, edgeStates
		if ex != nil {
			ex.BarrierDone(level, w, drainDone, time.Now())
		}

		// Commit (parallel): number the fingerprint partitions against the
		// sealed bases, then remap and write each worker's own CSR rows.
		// The round boundary between the two phases is the happens-before
		// edge that publishes every partition's finals to every remapper.
		runRound(phaseAssign, w)
		if err := lv.firstErr(); err != nil {
			return fail(err)
		}
		runRound(phaseRows, w)
		if err := lv.firstErr(); err != nil {
			return fail(err)
		}

		m.NoteFrontier(total)
		rec.Level(p.op, level, levelEnd-levelStart, w, len(res.states))
		level++
		levelStart = levelEnd
		// The barrier is complete: this is a consistent point to resume from.
		ckStates, ckRows, ckLevel = len(res.states), len(offsets)-1, level
	}

	res.offsets = offsets
	res.targets = targets
	res.edgeStates = edgeStates
	// Every row past the restored ones is one expansion, and its successors
	// are the targets past the restored ones.
	res.expanded = int64(len(offsets) - 1 - firstRow)
	res.emitted = int64(len(targets) - firstTarget)
	for wid := range lv.scratch {
		res.symCollapsed += lv.scratch[wid].collapsed
	}
	return res, nil
}

// grow extends s by n zeroed elements. The slices it serves only ever grow,
// so reslicing inside capacity exposes never-written (zero) memory.
func grow[T any](s []T, n int) []T {
	need := len(s) + n
	if need <= cap(s) {
		return s[:need]
	}
	out := make([]T, need, max(2*cap(s), need))
	copy(out, s)
	return out
}

// checkpointSnapshot copies the committed prefix of an aborted exploration
// into a Snapshot: the first nStates states (levels up to the last barrier),
// the first nRows adjacency rows, and the level to run next. The copy
// detaches the snapshot from the aborted run's scratch (res.states may hold
// partially assigned states past the barrier).
// checkpointSnapshot materializes resumable cache artifacts; the arrays it
// copies are already in deterministic commit order and must stay that way.
//
// aglint:deterministic
func checkpointSnapshot(res *exploreResult, offsets []int, targets []int32, edgeStates []*state.State, nStates, nRows, level int) *Snapshot {
	snap := &Snapshot{
		Level:   level,
		States:  append([]*state.State(nil), res.states[:nStates]...),
		Inits:   append([]int(nil), res.inits...),
		Offsets: append([]int(nil), offsets[:nRows+1]...),
		Targets: append([]int32(nil), targets[:offsets[nRows]]...),
	}
	if edgeStates != nil {
		snap.EdgeStates = append([]*state.State(nil), edgeStates[:offsets[nRows]]...)
	}
	return snap
}

// newlyInterned records a state first reached during the current level,
// awaiting its final id at the barrier. fp caches the fingerprint the
// partition sort orders by.
type newlyInterned struct {
	ref store.Ref
	fp  uint64
	st  *state.State
}

// refRow locates one frontier state's successor entries inside its expanding
// worker's arena.
type refRow struct {
	start, end int32
}

// Arena entries encode either an interned ref awaiting its final id, or —
// for successors the drain already resolved against the committed index —
// the final id itself, bitwise-complemented so the two are distinguishable
// by sign. The committed-dedup fast path is what keeps already-explored
// successors (the bulk of a BFS level's edges) off the store's shard locks
// and out of the barrier's remap-by-ref volume.
func arenaRef(r store.Ref) int64 { return int64(r) }
func arenaFinal(id int) int64    { return ^int64(id) }
func arenaResolve(v int64, finals []int32) int32 {
	if v < 0 {
		return int32(^v)
	}
	return finals[store.Ref(v).Dense()]
}

// Barrier phases, run as pool rounds (see explore).
const (
	phaseDrain = iota
	phaseAssign
	phaseRows
)

// workerScratch is one worker's private level scratch, reused across levels
// so steady-state expansion allocates only for genuinely new states. arena
// accumulates the successor entries of every state the worker expanded this
// level (rows index into it); newsPart buckets first-interned states by
// fingerprint partition for the barrier; fps/refs/added are the InternBatch
// scratch.
type workerScratch struct {
	arena  []int64
	rowIdx []int32 // frontier indices this worker expanded (its commit rows)
	pend   []int32 // per-expansion scratch: successor slots needing interning
	batch  []*state.State
	fps    []uint64
	refs   []store.Ref
	added  []bool
	// newsPart[p] holds the states this worker interned first whose
	// fingerprint lands in partition p; maxDense is the largest dense ref
	// encoding among them (for the seal's one ensureFinals call).
	newsPart [store.NumPartitions][]newlyInterned
	maxDense int
	// merge is the commit-phase scratch a worker sorts partitions in.
	merge []newlyInterned
	// realArena mirrors arena positionally with each successor's real
	// (pre-canonicalization) state; populated only when canon is active.
	realArena []*state.State
	// canonBuf is the per-expansion scratch for canonicalized successors.
	canonBuf []*state.State
	// collapsed counts successors whose canonical representative differed,
	// accumulated across levels and summed once exploration finishes.
	collapsed int64
	// levelStates/levelSuccs/levelCanonNS tally one level's work for the
	// telemetry "expand" slice (states expanded, successors emitted,
	// canonicalization time); reset by begin. Private to the worker, so the
	// adds are plain (non-atomic) and effectively free.
	levelStates  int64
	levelSuccs   int64
	levelCanonNS int64
}

// levelRun is the shared scratch of one level's worker pool, reused across
// levels (see begin).
type levelRun struct {
	params  *exploreParams
	store   *store.Store
	states  []*state.State // the frontier (current level), final-id order
	rows    []refRow       // per frontier index: where its successor entries live
	scratch []workerScratch
	// lookup is the index probe the drain deduplicates successors through.
	lookup func(*state.State) (int, bool)
	// ex is the exploration's telemetry handle (nil when telemetry is off);
	// level is the BFS level currently being drained, set by explore before
	// begin and read by workers only for telemetry labels.
	ex    *obs.Exploration
	level int
	w     int   // workers participating in the current level
	phase int   // current pool round (phaseDrain/phaseAssign/phaseRows)
	chunk int64 // frontier indices claimed per atomic increment

	// Commit-phase context, sealed by the coordinator between the drain and
	// assign rounds (the pool channel provides the happens-before edge):
	// partition base ids, the grown finals/states arrays, the index, and
	// the preallocated CSR arrays with this level's first offsets row.
	bases      [store.NumPartitions]int
	finals     []int32
	idx        *store.Index
	offsets    []int
	targets    []int32
	edgeStates []*state.State
	rowBase    int

	next atomic.Int64 // frontier work index
	stop atomic.Bool
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
}

// begin readies the scratch for one level over the given frontier slice.
func (lv *levelRun) begin(states []*state.State, w int) {
	lv.states = states
	lv.w = w
	if cap(lv.rows) < len(states) {
		lv.rows = make([]refRow, len(states))
	}
	lv.rows = lv.rows[:len(states)]
	for wid := range lv.scratch {
		ws := &lv.scratch[wid]
		ws.arena = ws.arena[:0]
		ws.rowIdx = ws.rowIdx[:0]
		ws.realArena = ws.realArena[:0]
		for pi := range ws.newsPart {
			ws.newsPart[pi] = ws.newsPart[pi][:0]
		}
		ws.maxDense = -1
		ws.levelStates, ws.levelSuccs, ws.levelCanonNS = 0, 0, 0
	}
	// Chunk so each worker claims ~8 batches per level: big enough to keep
	// the shared counter cold, small enough to balance uneven expansions.
	chunk := int64(len(states) / (8 * w))
	if chunk < 1 {
		chunk = 1
	} else if chunk > 64 {
		chunk = 64
	}
	lv.chunk = chunk
	lv.next.Store(0)
	lv.stop.Store(false)
}

func (lv *levelRun) setErr(err error) {
	lv.mu.Lock()
	if lv.err == nil {
		lv.err = err
	}
	lv.mu.Unlock()
	lv.stop.Store(true)
}

func (lv *levelRun) firstErr() error {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.err
}

// work runs one worker's share of the current phase round. With telemetry
// attached each phase is bracketed with one timestamp pair, emitting the
// worker's per-level "expand" or "commit" slices; without, it is a direct
// call into the phase body.
func (lv *levelRun) work(wid int) {
	switch lv.phase {
	case phaseDrain:
		if lv.ex == nil {
			lv.drain(wid)
			return
		}
		start := time.Now()
		lv.drain(wid)
		ws := &lv.scratch[wid]
		lv.ex.EndDrain(wid, lv.level, ws.levelStates, ws.levelSuccs, ws.levelCanonNS, start)
	case phaseAssign:
		if lv.ex == nil {
			lv.assignPartitions(wid)
			return
		}
		start := time.Now()
		lv.assignPartitions(wid)
		lv.ex.EndCommit(wid, lv.level, start)
	case phaseRows:
		if lv.ex == nil {
			lv.commitRows(wid)
			return
		}
		start := time.Now()
		lv.commitRows(wid)
		lv.ex.EndCommit(wid, lv.level, start)
	}
}

// assignPartitions numbers this worker's share of the fingerprint
// partitions: for each owned partition, merge every drain worker's bucket,
// sort by (fingerprint, Key), and assign final ids from the sealed base.
// Distinct partitions touch disjoint index shards, finals slots, and states
// slots, so the phase is write-race-free by construction; panics are
// contained like drain panics.
func (lv *levelRun) assignPartitions(wid int) {
	var perr error
	defer func() {
		if perr != nil {
			lv.setErr(perr)
		}
	}()
	defer engine.Capture(&perr, lv.params.op, func() (string, string) { return "", "" })
	ws := &lv.scratch[wid]
	for pi := wid; pi < store.NumPartitions; pi += lv.w {
		merge := ws.merge[:0]
		for src := 0; src < lv.w; src++ {
			merge = append(merge, lv.scratch[src].newsPart[pi]...)
		}
		if len(merge) == 0 {
			continue
		}
		sort.Slice(merge, func(i, j int) bool {
			if merge[i].fp != merge[j].fp {
				return merge[i].fp < merge[j].fp
			}
			return merge[i].st.Key() < merge[j].st.Key()
		})
		base := lv.bases[pi]
		for k, ns := range merge {
			id := base + k
			lv.states[id] = ns.st
			lv.idx.Put(ns.st, id)
			lv.finals[ns.ref.Dense()] = int32(id)
		}
		ws.merge = merge[:0]
	}
}

// commitRows remaps this worker's own drain rows to final ids and writes
// them into the sealed CSR range. Every row's span [offsets[rowBase+i],
// offsets[rowBase+i+1]) is owned by exactly one worker, so writes are
// disjoint; finals reads see every partition via the round barrier between
// assign and rows.
// commitRows writes each row's successor ids at their final positions; the
// graph bytes it produces are replay-compared and cached, so the path must
// stay free of randomized iteration.
//
// aglint:deterministic
func (lv *levelRun) commitRows(wid int) {
	var perr error
	defer func() {
		if perr != nil {
			lv.setErr(perr)
		}
	}()
	defer engine.Capture(&perr, lv.params.op, func() (string, string) { return "", "" })
	ws := &lv.scratch[wid]
	canon := lv.params.canon != nil
	for _, ri := range ws.rowIdx {
		i := int(ri)
		row := lv.rows[i]
		dst := lv.targets[lv.offsets[lv.rowBase+i]:lv.offsets[lv.rowBase+i+1]]
		arena := ws.arena[row.start:row.end]
		for n, v := range arena {
			dst[n] = arenaResolve(v, lv.finals)
		}
		if canon {
			copy(lv.edgeStates[lv.offsets[lv.rowBase+i]:], ws.realArena[row.start:row.end])
		}
	}
}

// drain drains frontier chunks until the level (or the budget) is exhausted.
// Panics in the expand callback are contained as *engine.EngineError
// carrying the fingerprint of the state being expanded.
func (lv *levelRun) drain(wid int) {
	p := lv.params
	m := p.meter
	ws := &lv.scratch[wid]
	var cur *state.State
	var perr error
	defer func() {
		if perr != nil {
			lv.setErr(perr)
		}
	}()
	defer engine.Capture(&perr, p.op, func() (string, string) {
		if cur != nil {
			return cur.Key(), ""
		}
		return "", ""
	})
	for {
		start := int(lv.next.Add(lv.chunk)) - int(lv.chunk)
		if start >= len(lv.states) {
			return
		}
		end := start + int(lv.chunk)
		if end > len(lv.states) {
			end = len(lv.states)
		}
		for i := start; i < end; i++ {
			if lv.stop.Load() {
				return
			}
			cur = lv.states[i]
			if err := m.Tick(); err != nil {
				lv.setErr(err)
				return
			}
			succs, err := p.expand(cur)
			if err != nil {
				lv.setErr(err)
				return
			}
			ws.levelStates++
			ws.levelSuccs += int64(len(succs))
			// Under canonicalization the graph interns representatives only;
			// the real successors land in realArena, positionally aligned with
			// arena so the barrier can zip ⟨canonical id, real state⟩ per edge.
			interning := succs
			if p.canon != nil {
				var canonStart time.Time
				if lv.ex != nil {
					canonStart = time.Now()
				}
				if cap(ws.canonBuf) < len(succs) {
					ws.canonBuf = make([]*state.State, len(succs))
				}
				cb := ws.canonBuf[:len(succs)]
				for j, t := range succs {
					c := p.canon(t)
					if c != t {
						ws.collapsed++
					}
					cb[j] = c
				}
				if lv.ex != nil {
					ws.levelCanonNS += time.Since(canonStart).Nanoseconds()
				}
				ws.realArena = append(ws.realArena, succs...)
				interning = cb
			}
			// Dedup against the committed index before interning: successors
			// already numbered at an earlier barrier resolve lock-free to
			// their final id, so only frontier-fresh states reach the store.
			rowStart := len(ws.arena)
			pend := ws.pend[:0]
			batch := ws.batch[:0]
			for j, t := range interning {
				if id, ok := lv.lookup(t); ok {
					ws.arena = append(ws.arena, arenaFinal(id))
					continue
				}
				ws.arena = append(ws.arena, 0)
				pend = append(pend, int32(j))
				batch = append(batch, t)
			}
			if len(batch) > 0 {
				if cap(ws.refs) < len(batch) {
					ws.refs = make([]store.Ref, len(batch))
					ws.fps = make([]uint64, len(batch))
					ws.added = make([]bool, len(batch))
				}
				refs := ws.refs[:len(batch)]
				added := ws.added[:len(batch)]
				fps := ws.fps[:len(batch)]
				lv.store.InternBatch(batch, fps, refs, added)
				for bi, j := range pend {
					ws.arena[rowStart+int(j)] = arenaRef(refs[bi])
					if !added[bi] {
						continue
					}
					ws.newsPart[store.Partition(fps[bi])] = append(
						ws.newsPart[store.Partition(fps[bi])],
						newlyInterned{ref: refs[bi], fp: fps[bi], st: batch[bi]})
					if d := refs[bi].Dense(); d > ws.maxDense {
						ws.maxDense = d
					}
					if err := m.AddState(); err != nil {
						lv.setErr(err)
						return
					}
					if p.limit > 0 && lv.store.Len() > p.limit {
						lv.setErr(&engine.BudgetError{
							Reason: fmt.Sprintf("%s: state space exceeds MaxStates limit %d", p.limitName, p.limit),
							Stats:  m.Stats(),
						})
						return
					}
				}
			}
			ws.pend, ws.batch = pend, batch
			ws.rowIdx = append(ws.rowIdx, int32(i))
			lv.rows[i] = refRow{start: int32(rowStart), end: int32(len(ws.arena))}
			if err := m.AddTransitions(len(succs)); err != nil {
				lv.setErr(err)
				return
			}
		}
	}
}
