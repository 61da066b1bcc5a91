package ts

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/reduce"
	"opentla/internal/state"
	"opentla/internal/store"
)

// Graph is the reachable state graph of a System. Every state has a
// stuttering self-loop (TLA behaviors always permit stuttering), so every
// finite path extends to an infinite behavior.
//
// Adjacency is stored in compressed-sparse-row form, finalized once
// exploration completes: offsets[i]:offsets[i+1] index the successor ids of
// state i in targets, and the index k into targets is edge k's one handle
// (EdgeSource, EdgeTarget, EdgeReal). Consumers walk edges through
// ForEachSuccEdge and paths through Search rather than touching the
// arrays. State numbering is deterministic regardless of how many workers
// built the graph (see explore).
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
	// only) preserves each edge's real successor so checks can read
	// genuine steps via EdgeReal.
	// cz maps any state to its representative (nil when symmetry is off),
	// and Lift reads each edge's permutation off it.
	edgeStates []*state.State
	cz         *reduce.Canonicalizer
}

// Reduced reports whether the graph was built under symmetry reduction.
// A reduced graph decides the safety and liveness properties its group
// leaves invariant as the full graph does: its paths lift to behaviors
// (see Lift), and fairness and the targets check.FindFairLasso accepts are
// constant on orbits.
func (g *Graph) Reduced() bool { return g.cz != nil }

// Symmetry returns the group a reduced graph was built under, or nil for
// an unreduced graph.
func (g *Graph) Symmetry() *reduce.Symmetry {
	if g.cz == nil {
		return nil
	}
	return g.cz.Symmetry()
}

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
	cz := rd.Canonicalizer()
	if cz != nil {
		if err := rd.Symmetry.Validate(sys.Components, sys.reduceSteps(), sys.Domains); err != nil {
			return nil, fmt.Errorf("system %s: symmetry declaration rejected: %w", sys.Name, err)
		}
	}

	// CanonicalDesc embeds the reduction configuration, so reduced and full
	// graphs never share an entry.
	var desc string
	if sys.Cache != nil {
		desc = sys.CanonicalDesc()
	}
	op := "ts.Build(" + sys.Name + ")"
	g, res, err := sys.cachedBuild(sys.Ctx(), cz, desc, sys.Name, exploreParams{
		op:        op,
		workers:   sys.Workers,
		limit:     maxGraphStates,
		limitName: "system " + sys.Name,
		meter:     m,
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
// of sys with context ctx, reduced by cz (nil = unreduced), under the cache
// key desc ("" = not cached). It
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
func (sys *System) cachedBuild(ctx *form.Ctx, cz *reduce.Canonicalizer, desc, name string, p exploreParams,
	prepare func(seed bool) ([]*state.State, func() expandFunc, error)) (*Graph, *exploreResult, error) {
	c, m := sys.Cache, p.meter
	cached := c != nil && desc != ""
	if cached {
		if snap := cacheLoad(c, m, desc); snap != nil {
			g := graphFromSnapshot(sys, ctx, m, snap)
			g.cz = cz
			return g, nil, nil
		}
		p.resume = loadCheckpoint(c, m, desc, name)
		p.onCheckpoint = checkpointSaver(c, m, desc)
	}
	if cz != nil {
		p.canon = cz.Canon
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
	g := graphFromSnapshot(sys, ctx, m, snap)
	g.table, g.cz = res.table, cz
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

// ForEachSuccEdge calls f for every successor edge of from with its index
// k and its target id, in adjacency order, stopping early if f returns
// false; it reports whether the iteration ran to completion. A reduced
// graph may hold several edges between two states, one per real
// successor: only k tells them apart.
func (g *Graph) ForEachSuccEdge(from int, f func(k, to int) bool) bool {
	lo, hi := g.offsets[from], g.offsets[from+1]
	for k := lo; k < hi; k++ {
		if !f(k, int(g.targets[k])) {
			return false
		}
	}
	return true
}

// EdgeTarget returns the target id of edge k.
func (g *Graph) EdgeTarget(k int) int { return int(g.targets[k]) }

// EdgeReal returns the real successor state of edge k. On an unreduced
// graph it is the target's state; on a symmetry-reduced graph it is the
// genuine post-state of the step from the edge's source, whose canonical
// representative is the target. So ⟨source, EdgeReal(k)⟩ is always a step
// the system can take: checks read steps here to stay false-alarm-free.
func (g *Graph) EdgeReal(k int) *state.State {
	if len(g.edgeStates) > 0 && g.edgeStates[k] != nil {
		return g.edgeStates[k]
	}
	return g.States[g.targets[k]]
}

// EdgeSource returns the id of the state edge k leaves.
func (g *Graph) EdgeSource(k int) int {
	return sort.Search(len(g.States), func(i int) bool { return g.offsets[i+1] > k })
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
	for from := range g.States {
		if !g.ForEachSuccEdge(from, func(_, to int) bool { return f(from, to) }) {
			return
		}
	}
}

// Path is a path of a graph: the state it starts from and the edges it
// follows, by index. Its states are read off the edges: state i+1 is
// EdgeTarget(Edges[i]), and EdgeReal(Edges[i]) is the step's real
// successor.
type Path struct {
	Start int
	Edges []int
}

// Search is the record of a breadth-first search of a graph: the edge by
// which the search first reached each state. Reachability and shortest
// paths are both read off it.
type Search struct {
	g    *Graph
	prev []int // the edge a state was first reached by, or searchStart or unreached
}

const (
	searchStart = -1
	unreached   = -2
)

// Search searches g breadth-first from starts through the states allowed
// admits and the edges edge admits, by source and index (nil admits all),
// visiting each state's successors in ForEachSuccEdge order; it skips the
// starts allowed rejects. It stops as soon as it reaches target, so a
// target ≥ 0 leaves the states it would have reached later unreached; a
// negative target searches everything reachable.
func (g *Graph) Search(starts []int, allowed func(id int) bool, edge func(from, k int) bool, target int) *Search {
	s := &Search{g: g, prev: make([]int, len(g.States))}
	for i := range s.prev {
		s.prev[i] = unreached
	}
	var queue []int
	reach := func(v, k int) bool {
		s.prev[v] = k
		queue = append(queue, v)
		return v != target
	}
	for _, v := range starts {
		if s.prev[v] == unreached && (allowed == nil || allowed(v)) && !reach(v, searchStart) {
			return s
		}
	}
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		for k := g.offsets[u]; k < g.offsets[u+1]; k++ {
			v := int(g.targets[k])
			if s.prev[v] != unreached || allowed != nil && !allowed(v) || edge != nil && !edge(u, k) {
				continue
			}
			if !reach(v, k) {
				return s
			}
		}
	}
	return s
}

// Reached reports whether the search reached state id.
func (s *Search) Reached(id int) bool { return s.prev[id] != unreached }

// Path returns the path by which the search first reached state id, a
// shortest path to it from the starts under the search's filters, and
// whether the search reached id.
func (s *Search) Path(id int) (Path, bool) {
	if !s.Reached(id) {
		return Path{}, false
	}
	var edges []int
	for s.prev[id] != searchStart {
		k := s.prev[id]
		edges = append(edges, k)
		id = s.g.EdgeSource(k)
	}
	slices.Reverse(edges)
	return Path{Start: id, Edges: edges}, true
}

// Lift follows a path of the graph, given by its edges k_0, k_1, …,
// through each edge's real successor. Write π_k for the permutation that
// takes edge k's real successor to its target (Canonicalizer.PermOf). With
// σ_0 = sigma, state i of the result is σ_i(real successor of k_i) and
// σ_{i+1} = σ_i ∘ π_{k_i}⁻¹; Lift also returns the last σ. Each σ_i maps
// the path's i-th representative to state i−1 of the result (to
// sigma(first state) for i = 0), and the group maps steps to steps, so the
// result continues a behavior through sigma(first state). On an unreduced
// graph the states are the path's own and sigma is returned unchanged.
func (g *Graph) Lift(sigma reduce.Perm, edges []int) (state.Behavior, reduce.Perm) {
	out := make(state.Behavior, len(edges))
	for i, k := range edges {
		real := g.EdgeReal(k)
		out[i] = sigma.Apply(real)
		if g.cz != nil {
			sigma = sigma.Compose(g.cz.PermOf(real).Inverse())
		}
	}
	return out, sigma
}

// BehaviorTo returns a shortest behavior of the system from an initial
// state to States[id], or nil if id is unreachable. It lifts the path
// Search finds from Inits (see Lift) and maps the result back by the
// inverse of the permutation it ends in, so it ends at States[id] itself
// and starts at an initial state, since a validated group leaves the
// initial predicate invariant. On an unreduced graph every permutation is
// the identity, so the behavior is the path's own states.
func (g *Graph) BehaviorTo(id int) state.Behavior {
	p, ok := g.Search(g.Inits, nil, nil, id).Path(id)
	if !ok {
		return nil
	}
	lifted, sigma := g.Lift(reduce.Perm{}, p.Edges)
	b := append(state.Behavior{g.States[p.Start]}, lifted...)
	inv := sigma.Inverse()
	for i, s := range b {
		b[i] = inv.Apply(s)
	}
	return b
}

// SCCs returns the strongly connected components of the subgraph induced by
// the allowed states and the edges, by source and index, allowedEdge
// allows (nil filters allow everything), in reverse topological order,
// using Tarjan's algorithm (iterative).
func (g *Graph) SCCs(allowedState func(int) bool, allowedEdge func(from, k int) bool) [][]int {
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
			lo := g.offsets[v]
			row := g.targets[lo:g.offsets[v+1]]
			for f.succ < len(row) {
				k := lo + f.succ
				w := int(row[f.succ])
				f.succ++
				if allowedState != nil && !allowedState(w) {
					continue
				}
				if allowedEdge != nil && !allowedEdge(v, k) {
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
