package ts

import (
	"fmt"
	"sync"
	"time"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/state"
	"opentla/internal/store"
)

// Graph is the reachable state graph of a System. Every state has a
// stuttering self-loop (TLA behaviors always permit stuttering), so every
// finite path extends to an infinite behavior.
//
// Adjacency is stored in compressed-sparse-row form, finalized once
// exploration completes: offsets[i]:offsets[i+1] index the successor ids of
// state i in targets. Consumers iterate through ForEachSucc and Degree
// rather than touching the arrays. State numbering is deterministic
// regardless of how many workers built the graph (see explore).
type Graph struct {
	Sys    *System
	Ctx    *form.Ctx
	States []*state.State
	Inits  []int

	offsets []int
	targets []int32
	meter   *engine.Meter
	// table numbers every state for ID: the explore's own store for a
	// built graph, or, for a graph loaded from a snapshot, one interned on
	// the first ID call (a warm run that never calls ID never pays for it).
	table     *store.Store
	tableOnce sync.Once

	// Reduction bookkeeping. A reduced graph's States are canonical orbit
	// representatives; edgeStates (parallel to targets, symmetry builds
	// only) preserves each edge's real successor so checks can iterate
	// genuine steps via ForEachSuccStep.
	// canon maps any state to its representative (nil when symmetry is off).
	edgeStates []*state.State
	reduced    bool
	canon      func(*state.State) *state.State
}

// Reduced reports whether the graph was built under symmetry reduction.
// Reduced graphs preserve all safety verdicts of properties the group
// leaves invariant but are unsuitable for fairness/liveness analysis.
func (g *Graph) Reduced() bool { return g.reduced }

// Meter returns the resource meter governing this graph and every check run
// over it. Graphs built without an explicit budget get an unlimited meter.
func (g *Graph) Meter() *engine.Meter {
	if g.meter == nil {
		g.meter = engine.NoLimit()
	}
	return g.meter
}

// Build explores the reachable states of the system breadth-first and
// returns the state graph, without a resource budget.
func (sys *System) Build() (*Graph, error) {
	return sys.BuildWith(engine.NoLimit())
}

// BuildWith explores the reachable states of the system under the given
// resource meter, using a level-synchronous parallel frontier BFS with
// sys.Workers goroutines (0 = GOMAXPROCS); the resulting graph — numbering,
// initial ids, adjacency — is identical at every worker count. Exploration
// aborts with an *engine.BudgetError (carrying partial statistics) when the
// budget is exhausted, and internal panics are contained as
// *engine.EngineError with the key of the state being expanded. The
// meter stays attached to the returned graph, so subsequent checks and
// monitor products draw from the same budget.
func (sys *System) BuildWith(m *engine.Meter) (*Graph, error) {
	if m == nil {
		m = engine.NoLimit()
	}
	defer obs.FromMeter(m).Span("build:" + sys.Name)()
	if err := sys.Validate(); err != nil {
		return nil, err
	}

	// Reduction setup precedes the cache probe: an invalid symmetry
	// declaration is a configuration error regardless of cache state, and
	// the canonicalizer is needed to reconstruct a cached reduced graph.
	rd := sys.Reduce
	var canon func(*state.State) *state.State
	if rd.Active() {
		if err := rd.Symmetry.Validate(sys.Components, sys.reduceSteps(), sys.reduceInits(), sys.Domains); err != nil {
			return nil, fmt.Errorf("system %s: symmetry declaration rejected: %w", sys.Name, err)
		}
		canon = rd.Canonicalizer().Canon
	}

	// CanonicalDesc embeds the reduction configuration, so reduced and full
	// graphs never share an entry.
	var desc string
	if sys.Cache != nil {
		desc = sys.CanonicalDesc()
	}
	op := "ts.Build(" + sys.Name + ")"
	g, res, err := sys.cachedBuild(sys.Ctx(), desc, sys.Name, exploreParams{
		op:        op,
		workers:   sys.Workers,
		limit:     maxGraphStates,
		limitName: "system " + sys.Name,
		meter:     m,
		canon:     canon,
	}, func(seed bool) ([]*state.State, func() expandFunc, error) {
		compiled, err := sys.compile()
		if err != nil {
			return nil, nil, err
		}
		var inits []*state.State
		if seed {
			if inits, err = sys.initialStates(m); err != nil {
				return nil, nil, err
			}
			if len(inits) == 0 {
				return nil, nil, fmt.Errorf("system %s: no initial states", sys.Name)
			}
		}
		return inits, sys.newExpand(compiled), nil
	})
	if res != nil && rd.Active() {
		obs.FromMeter(m).AddReduction(op, obs.ReductionStats{
			FullStates: res.expanded, FullSuccs: res.emitted, SymCollapsed: res.symCollapsed,
		})
	}
	return g, err
}

// cachedBuild is the one build path of BuildWith and Product, for a graph
// of sys with context ctx under the cache key desc ("" = not cached). It
//
//  1. probes sys.Cache for the complete entry under desc, and a hit is the
//     graph: nothing is compiled or explored;
//  2. on a miss, loads the checkpoint under the same key. The key is the
//     SHA-256 of the system description, so a checkpoint found there is a
//     prefix of this very build and resuming it needs no flag;
//  3. has prepare make the expanders and, unless resuming (seed false),
//     the initial states;
//  4. explores p, from the checkpoint or the seeds, saving a checkpoint
//     under desc if the budget runs out;
//  5. assembles the graph with graphFromSnapshot and stores it under desc.
//
// name labels the checkpoint notes. The exploration's result is returned
// for the caller's reduction statistics; it is nil on a hit.
func (sys *System) cachedBuild(ctx *form.Ctx, desc, name string, p exploreParams,
	prepare func(seed bool) ([]*state.State, func() expandFunc, error)) (*Graph, *exploreResult, error) {
	c, m := sys.Cache, p.meter
	cached := c != nil && desc != ""
	if cached {
		if snap := cacheLoad(c, m, desc); snap != nil {
			return graphFromSnapshot(sys, ctx, m, snap, p.canon), nil, nil
		}
		p.resume = loadCheckpoint(c, m, desc, name)
		p.onCheckpoint = checkpointSaver(c, m, desc)
	}
	var err error
	p.inits, p.newExpand, err = prepare(p.resume == nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := explore(p)
	if err != nil {
		return nil, nil, err
	}
	snap := &Snapshot{
		Complete:   true,
		States:     res.states,
		Inits:      res.inits,
		Offsets:    res.offsets,
		Targets:    res.targets,
		EdgeStates: res.edgeStates,
	}
	g := graphFromSnapshot(sys, ctx, m, snap, p.canon)
	g.table = res.table
	if cached {
		defer obs.FromMeter(m).CacheOp("store", time.Now())
		if err := c.Store(desc, snap); err != nil {
			m.Note("cache-corrupt", fmt.Sprintf("storing cache entry: %v", err))
		}
	}
	return g, res, nil
}

// loadCheckpoint loads the saved checkpoint of the graph named name, noting
// the outcome; an unusable or invalid checkpoint degrades to a cold build.
func loadCheckpoint(c GraphCache, m *engine.Meter, desc, name string) *Snapshot {
	snap, err := c.LoadCheckpoint(desc)
	switch {
	case err != nil:
		m.Note("cache-corrupt", fmt.Sprintf("checkpoint for %s unusable, cold build: %v", name, err))
	case snap != nil && !validSnapshot(snap, false):
		m.Note("cache-corrupt", fmt.Sprintf("checkpoint for %s fails validation, cold build", name))
	case snap != nil:
		m.Note("resume", fmt.Sprintf("%s: resuming from level %d (%d states, %d committed rows)",
			name, snap.Level, len(snap.States), snap.Rows()))
		return snap
	}
	return nil
}

// cacheLoad consults the cache for a complete graph, noting the outcome in
// the flight recorder (obs.Recorder.Points says how the outcomes become
// hit and miss counters). Corruption and validation failures degrade to a
// cold build, never to a wrong graph.
func cacheLoad(c GraphCache, m *engine.Meter, desc string) *Snapshot {
	defer obs.FromMeter(m).CacheOp("load", time.Now())
	snap, err := c.Load(desc)
	switch {
	case err != nil:
		m.Note("cache-corrupt", fmt.Sprintf("cache entry unusable, cold build: %v", err))
		return nil
	case snap == nil:
		m.Note("cache-miss", "no cached graph")
		return nil
	case !validSnapshot(snap, true):
		m.Note("cache-corrupt", "cache entry fails validation, cold build")
		return nil
	}
	m.Note("cache-hit", fmt.Sprintf("reusing cached graph: %d states, %d edges", len(snap.States), len(snap.Targets)))
	return snap
}

// checkpointSaver returns the explore onCheckpoint callback persisting
// budget-exhaustion checkpoints under desc.
func checkpointSaver(c GraphCache, m *engine.Meter, desc string) func(*Snapshot) {
	return func(snap *Snapshot) {
		defer obs.FromMeter(m).CacheOp("checkpoint", time.Now())
		if err := c.StoreCheckpoint(desc, snap); err != nil {
			m.Note("cache-corrupt", fmt.Sprintf("storing checkpoint: %v", err))
			return
		}
		m.Note("checkpoint-saved", fmt.Sprintf("checkpoint at level %d: %d states, %d committed rows; rerun with the same -cache-dir to continue",
			snap.Level, len(snap.States), snap.Rows()))
	}
}

// NumStates returns the number of reachable states.
func (g *Graph) NumStates() int { return len(g.States) }

// NumEdges returns the number of edges (including self-loops).
func (g *Graph) NumEdges() int { return len(g.targets) }

// Degree returns the number of successors of state id.
func (g *Graph) Degree(id int) int { return g.offsets[id+1] - g.offsets[id] }

// ForEachSucc calls f for every successor of from, in adjacency order,
// stopping early if f returns false. It reports whether the iteration ran to
// completion (false = stopped early).
func (g *Graph) ForEachSucc(from int, f func(to int) bool) bool {
	for _, to := range g.targets[g.offsets[from]:g.offsets[from+1]] {
		if !f(int(to)) {
			return false
		}
	}
	return true
}

// ForEachSuccStep calls f for every successor edge of from with the
// canonical target id and the edge's REAL successor state, in adjacency
// order, stopping early if f returns false; it reports whether the iteration
// ran to completion. On an unreduced graph the real successor is simply
// States[to]; on a symmetry-reduced graph it is the genuine post-state of
// the step from States[from] (whose canonical representative is States[to]),
// so ⟨States[from], real⟩ is always a step the system can actually take —
// the iteration surface safety checks must use to stay false-alarm-free.
func (g *Graph) ForEachSuccStep(from int, f func(to int, real *state.State) bool) bool {
	lo, hi := g.offsets[from], g.offsets[from+1]
	for k := lo; k < hi; k++ {
		to := int(g.targets[k])
		real := g.States[to]
		if len(g.edgeStates) > 0 && g.edgeStates[k] != nil {
			real = g.edgeStates[k]
		}
		if !f(to, real) {
			return false
		}
	}
	return true
}

// ForEachEdgeStep calls f for every edge with its real successor state (see
// ForEachSuccStep), stopping early if f returns false.
func (g *Graph) ForEachEdgeStep(f func(from, to int, real *state.State) bool) {
	for from := 0; from < len(g.States); from++ {
		if !g.ForEachSuccStep(from, func(to int, real *state.State) bool { return f(from, to, real) }) {
			return
		}
	}
}

// ID returns the identifier of a state, or -1 if unreachable. Any number
// of goroutines may call it concurrently.
func (g *Graph) ID(s *state.State) int {
	g.tableOnce.Do(func() {
		if g.table == nil {
			g.table = newStore()
			internNumbered(g.table, g.States)
		}
	})
	if id, ok := g.table.Get(s); ok {
		return id
	}
	return -1
}

// ForEachEdge calls f for every edge, stopping early if f returns false.
func (g *Graph) ForEachEdge(f func(from, to int) bool) {
	for from := 0; from < len(g.States); from++ {
		if !g.ForEachSucc(from, func(to int) bool { return f(from, to) }) {
			return
		}
	}
}

// PathTo returns state IDs of a shortest path from an initial state to
// target (inclusive), or nil if unreachable.
func (g *Graph) PathTo(target int) []int {
	return g.PathBetween(g.Inits, target, nil)
}

// PathBetween returns a shortest path from any state in from to target,
// restricted to states allowed by the filter (nil allows all). The path
// includes both endpoints; it is nil if no path exists.
func (g *Graph) PathBetween(from []int, target int, allowed func(int) bool) []int {
	prev := make([]int, len(g.States))
	for i := range prev {
		prev[i] = -2 // unvisited
	}
	var queue []int
	for _, s := range from {
		if allowed != nil && !allowed(s) {
			continue
		}
		if prev[s] == -2 {
			prev[s] = -1 // source
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == target {
			var path []int
			for v := u; v != -1; v = prev[v] {
				path = append(path, v)
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path
		}
		g.ForEachSucc(u, func(v int) bool {
			if prev[v] != -2 {
				return true
			}
			if allowed != nil && !allowed(v) {
				return true
			}
			prev[v] = u
			queue = append(queue, v)
			return true
		})
	}
	return nil
}

// Behavior converts a path of state IDs to a finite behavior.
func (g *Graph) Behavior(path []int) state.Behavior {
	out := make(state.Behavior, len(path))
	for i, id := range path {
		out[i] = g.States[id]
	}
	return out
}

// SCCs returns the strongly connected components of the subgraph induced by
// the allowed states and edges (nil filters allow everything), in reverse
// topological order, using Tarjan's algorithm (iterative).
func (g *Graph) SCCs(allowedState func(int) bool, allowedEdge func(from, to int) bool) [][]int {
	n := len(g.States)
	const unvisited = -1
	indexOf := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range indexOf {
		indexOf[i] = unvisited
	}
	var stack []int
	var sccs [][]int
	counter := 0

	m := g.Meter()
	type frame struct {
		v    int
		succ int
	}
	for root := 0; root < n; root++ {
		// Cooperative cancellation: budget exhaustion latches in the meter,
		// so callers observe it via Meter().Err() after the (partial) result.
		if m.Tick() != nil {
			break
		}
		if indexOf[root] != unvisited || (allowedState != nil && !allowedState(root)) {
			continue
		}
		var call []frame
		indexOf[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		call = append(call, frame{v: root})
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			advanced := false
			row := g.targets[g.offsets[v]:g.offsets[v+1]]
			for f.succ < len(row) {
				w := int(row[f.succ])
				f.succ++
				if allowedState != nil && !allowedState(w) {
					continue
				}
				if allowedEdge != nil && !allowedEdge(v, w) {
					continue
				}
				if indexOf[w] == unvisited {
					indexOf[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && indexOf[w] < low[v] {
					low[v] = indexOf[w]
				}
			}
			if advanced {
				continue
			}
			// v finished.
			if low[v] == indexOf[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, comp)
				m.NoteSCC()
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}
	return sccs
}

// HasEdge reports whether the graph has an edge from → to.
func (g *Graph) HasEdge(from, to int) bool {
	return !g.ForEachSucc(from, func(v int) bool { return v != to })
}
