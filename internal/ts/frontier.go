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
	table   *store.Store   // every state interned, numbered with its final id
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
//  1. drain: workers claim frontier chunks, expand states, and
//     intern every successor into the store, recording its Ref in the
//     worker's arena. Newly interned states land in per-worker
//     per-partition buckets keyed by store.Partition(fp) — the top
//     fingerprint bits, which are also the store's shards — so the barrier
//     never re-buckets.
//  2. seal (single-threaded, deliberately tiny): per-partition counts are
//     summed into base offsets, the CSR offsets row is extended by a prefix
//     sum of known row lengths, and the states/targets arrays are grown.
//     Pure arithmetic — no sorting, no hashing, no per-edge work.
//  3. commit (parallel): workers sort and number whole fingerprint
//     partitions against their precomputed bases (each numbering only its
//     own store shards and states slots), then resolve their own drain
//     rows' Refs to final ids into the preallocated CSR range. Partition
//     order is fingerprint order, so concatenating sorted partitions
//     reproduces the exact global (fingerprint, Key) sort a single thread
//     would produce.
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
	res := &exploreResult{table: interned}
	// Incrementally built CSR adjacency, committed one frontier row at a
	// time at level barriers. offsets always carries the leading 0, so
	// len(offsets)-1 is the committed row count. edgeStates (canon runs
	// only) grows in lockstep with targets.
	offsets := []int{0}
	var targets []int32
	var edgeStates []*state.State

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
			interned.Number(ns.ref, id)
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
		// adjacency verbatim. Restored states bypass the meter so budgets
		// govern only new work, letting repeated bounded runs make
		// incremental progress.
		internNumbered(interned, p.resume.States)
		res.states = append(res.states, p.resume.States...)
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
			res.inits = append(res.inits, interned.ID(ref))
		}
		ckStates, ckRows, ckLevel = len(res.states), 0, 0
	}

	// The level scratch persists across levels: one levelRun handed to the
	// pool each phase round, per-worker arenas that keep their capacity.
	lv := &levelRun{
		params:  &p,
		store:   interned,
		scratch: make([]workerScratch, workers),
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
		for pi := 0; pi < store.NumPartitions; pi++ {
			lv.bases[pi] = levelEnd + total
			for wid := 0; wid < w; wid++ {
				total += len(lv.scratch[wid].newsPart[pi])
			}
		}
		if p.limit > 0 && levelEnd+total > p.limit {
			return fail(&engine.BudgetError{
				Reason: fmt.Sprintf("%s: state space exceeds MaxStates limit %d", p.limitName, p.limit),
				Stats:  m.Stats(),
			})
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
		lv.states = res.states
		lv.offsets, lv.targets, lv.edgeStates = offsets, targets, edgeStates
		if ex != nil {
			ex.BarrierDone(level, w, drainDone, time.Now())
		}

		// Commit (parallel): number the fingerprint partitions against the
		// sealed bases, then resolve and write each worker's own CSR rows.
		// The round boundary between the two phases is the happens-before
		// edge that publishes every partition's numbers to every resolver.
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

// internNumbered interns states into st, numbering each with its position.
func internNumbered(st *store.Store, states []*state.State) {
	for i, s := range states {
		ref, _ := st.Intern(s)
		st.Number(ref, i)
	}
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

// Barrier phases, run as pool rounds (see explore).
const (
	phaseDrain = iota
	phaseAssign
	phaseRows
)

// workerScratch is one worker's private level scratch, reused across levels
// so steady-state expansion allocates only for genuinely new states. arena
// accumulates the successor Refs of every state the worker expanded this
// level (rows index into it); newsPart buckets first-interned states by
// fingerprint partition for the barrier.
type workerScratch struct {
	arena  []store.Ref
	rowIdx []int32 // frontier indices this worker expanded (its commit rows)
	// newsPart[p] holds the states this worker interned first whose
	// fingerprint lands in partition p.
	newsPart [store.NumPartitions][]newlyInterned
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
	// partition base ids, the grown states array, and the preallocated CSR
	// arrays with this level's first offsets row.
	bases      [store.NumPartitions]int
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
// Distinct partitions touch disjoint store shards and states slots, so the
// phase is write-race-free by construction; panics are contained like drain
// panics.
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
			lv.store.Number(ns.ref, id)
		}
		ws.merge = merge[:0]
	}
}

// commitRows resolves this worker's own drain rows to final ids and writes
// them into the sealed CSR range. Every row's span [offsets[rowBase+i],
// offsets[rowBase+i+1]) is owned by exactly one worker, so writes are
// disjoint; ID reads see every partition's numbers via the round barrier
// between assign and rows. The graph bytes it produces are replay-compared
// and cached, so the path must stay free of randomized iteration.
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
		for n, ref := range ws.arena[row.start:row.end] {
			dst[n] = int32(lv.store.ID(ref))
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
			// Intern the row straight into the arena: a successor numbered
			// at an earlier barrier gets its old Ref back, and commitRows
			// resolves every Ref to its final id.
			rowStart := len(ws.arena)
			for _, t := range interning {
				ref, added := lv.store.Intern(t)
				ws.arena = append(ws.arena, ref)
				if !added {
					continue
				}
				fp := t.Fingerprint()
				pi := store.Partition(fp)
				ws.newsPart[pi] = append(ws.newsPart[pi], newlyInterned{ref: ref, fp: fp, st: t})
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
			ws.rowIdx = append(ws.rowIdx, int32(i))
			lv.rows[i] = refRow{start: int32(rowStart), end: int32(len(ws.arena))}
			if err := m.AddTransitions(len(succs)); err != nil {
				lv.setErr(err)
				return
			}
		}
	}
}
