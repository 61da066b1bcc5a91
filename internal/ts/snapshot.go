package ts

import (
	"strconv"
	"strings"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/state"
)

// Snapshot is the serializable image of an exploration: either a complete
// graph (Complete == true, one CSR row per state) or a checkpoint taken at a
// level barrier of the level-synchronous BFS (rows only for the states whose
// successor lists were committed; the remaining states are the frontier of
// the next level to run).
//
// Because exploration numbering is deterministic at any worker count, a
// snapshot is a canonical encoding of the graph prefix it covers: two runs
// of the same system produce byte-identical snapshots, which is what makes
// content-addressed caching and checkpoint/resume sound.
type Snapshot struct {
	// Complete distinguishes a finished graph from a checkpoint.
	Complete bool
	// Level is the next BFS level to run when resuming (meaningless for a
	// complete snapshot).
	Level int
	// States holds every explored state in final-id order.
	States []*state.State
	// Inits are the final ids of the initial states.
	Inits []int
	// Offsets and Targets are the committed CSR rows: len(Offsets)-1 states
	// have their successor lists recorded. For a complete snapshot
	// len(Offsets) == len(States)+1; for a checkpoint the states at ids
	// >= len(Offsets)-1 are the pending frontier.
	Offsets []int
	Targets []int32
	// EdgeStates, when non-empty, is parallel to Targets and holds each
	// edge's real (pre-canonicalization) successor state; present only for
	// graphs built under symmetry reduction. Empty means every edge's real
	// successor IS the target state.
	EdgeStates []*state.State
}

// Rows returns the number of committed adjacency rows.
func (s *Snapshot) Rows() int {
	if len(s.Offsets) == 0 {
		return 0
	}
	return len(s.Offsets) - 1
}

// GraphCache is the persistence seam consulted by BuildWith and Product,
// keyed by the canonical description of the system (see CanonicalDesc). The
// standard implementation is internal/cache; ts depends only on this
// interface, mirroring the engine.Observer seam.
//
// Load and LoadCheckpoint return (nil, nil) on a miss; a non-nil error means
// the stored entry exists but could not be decoded (corruption), which
// callers treat as a miss after noting it. Both are probed by every cached
// build (see cachedBuild), so an unused key must be a cheap miss.
type GraphCache interface {
	Load(desc string) (*Snapshot, error)
	Store(desc string, snap *Snapshot) error
	LoadCheckpoint(desc string) (*Snapshot, error)
	StoreCheckpoint(desc string, snap *Snapshot) error
}

// Snapshot returns the complete serializable image of the graph. The
// returned value aliases the graph's slices; treat it as read-only.
// Snapshot's output is hashed and cached; it must not depend on map
// iteration order.
//
// aglint:deterministic
func (g *Graph) Snapshot() *Snapshot {
	return &Snapshot{
		Complete:   true,
		States:     g.States,
		Inits:      g.Inits,
		Offsets:    g.offsets,
		Targets:    g.targets,
		EdgeStates: g.edgeStates,
	}
}

// graphFromSnapshot is the one Graph constructor: it makes a graph of sys
// from a complete snapshot, loaded from the cache or just explored. A
// loaded graph's ID table is interned from the state list on the first ID
// call; cachedBuild hands a built graph its exploration's store instead.
// canon is the canonicalizer of the configuration (nil when symmetry is
// off); the reduced flag follows the configuration, not the snapshot — the
// cache key embeds the reduction description, so a snapshot is only ever
// loaded by a matching configuration.
func graphFromSnapshot(sys *System, ctx *form.Ctx, m *engine.Meter, snap *Snapshot, canon func(*state.State) *state.State) *Graph {
	return &Graph{
		Sys:        sys,
		Ctx:        ctx,
		States:     snap.States,
		Inits:      snap.Inits,
		offsets:    snap.Offsets,
		targets:    snap.Targets,
		edgeStates: snap.EdgeStates,
		meter:      m,
		reduced:    sys.Reduce.Active(),
		canon:      canon,
	}
}

// Valid sanity-checks the snapshot against the structural invariants graph
// reconstruction relies on, for wantComplete matching Complete. Exposed for
// cache fsck, which must judge entries without rebuilding their systems.
func (s *Snapshot) Valid(wantComplete bool) bool {
	return validSnapshot(s, wantComplete)
}

// validSnapshot sanity-checks a decoded snapshot against the structural
// invariants graph reconstruction relies on. The cache layer verifies the
// byte-level checksum; this guards the semantic bounds so a decoded-but-wrong
// snapshot can never index out of range.
func validSnapshot(snap *Snapshot, wantComplete bool) bool {
	if snap == nil || snap.Complete != wantComplete {
		return false
	}
	n := len(snap.States)
	if wantComplete && len(snap.Offsets) != n+1 {
		return false
	}
	if len(snap.Offsets) == 0 || len(snap.Offsets)-1 > n || snap.Offsets[0] != 0 {
		return false
	}
	for i := 1; i < len(snap.Offsets); i++ {
		if snap.Offsets[i] < snap.Offsets[i-1] {
			return false
		}
	}
	if snap.Offsets[len(snap.Offsets)-1] != len(snap.Targets) {
		return false
	}
	if len(snap.EdgeStates) != 0 && len(snap.EdgeStates) != len(snap.Targets) {
		return false
	}
	for _, t := range snap.Targets {
		if t < 0 || int(t) >= n {
			return false
		}
	}
	for _, id := range snap.Inits {
		if id < 0 || id >= n {
			return false
		}
	}
	if !wantComplete && snap.Level < 0 {
		return false
	}
	return true
}

// CanonicalDesc renders the system as a canonical content-addressed
// description string: two systems with the same description build
// byte-identical graphs, so the description keys the graph cache.
//
// The description covers everything graph construction depends on — the
// variable domains, each component's interface, initial predicate, action
// definitions and fairness (in declaration order, which fixes successor
// enumeration order), the step constraints, and the initial constraints. It
// deliberately excludes Name (content addressing lets differently-named
// instances of the same system share entries), Workers (graphs are
// byte-identical at any worker count).
//
// CanonicalDesc is the cache key; identical systems must produce
// identical descriptors on every run. It assumes a validated system (every
// action has a definition).
//
// aglint:deterministic
func (sys *System) CanonicalDesc() string {
	var sb strings.Builder
	sb.WriteString("opentla-system-desc-v1\n")
	sb.WriteString("vars:\n")
	for _, v := range sys.Vars() {
		sb.WriteString("  ")
		sb.WriteString(v)
		sb.WriteString("=[")
		for i, val := range sys.Domains[v] {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(val.String())
		}
		sb.WriteString("]\n")
	}
	for i, c := range sys.Components {
		sb.WriteString("component ")
		sb.WriteString(strconv.Itoa(i))
		sb.WriteString(":\n")
		writeNames(&sb, "  in=", c.Inputs)
		writeNames(&sb, "  out=", c.Outputs)
		writeNames(&sb, "  internal=", c.Internals)
		sb.WriteString("  init=")
		writeExpr(&sb, c.Init)
		sb.WriteByte('\n')
		for _, a := range c.Actions {
			sb.WriteString("  action ")
			sb.WriteString(a.Name)
			sb.WriteString(": ")
			sb.WriteString(a.Def.String())
			sb.WriteByte('\n')
		}
		for _, f := range c.Fairness {
			sb.WriteString("  fair ")
			sb.WriteString(f.Kind.String())
			sb.WriteString(" sub=")
			writeExpr(&sb, f.Sub)
			sb.WriteString(" act=")
			writeExpr(&sb, f.Action)
			sb.WriteByte('\n')
		}
	}
	for _, sc := range sys.Constraints {
		sb.WriteString("constraint ")
		sb.WriteString(sc.Name)
		sb.WriteString(": ")
		writeExpr(&sb, sc.Action)
		sb.WriteByte('\n')
	}
	for _, ic := range sys.InitConstraints {
		sb.WriteString("init-constraint: ")
		writeExpr(&sb, ic)
		sb.WriteByte('\n')
	}
	// Reduction changes the constructed graph (representative states), so
	// an active configuration must key differently from the full
	// build — and from any other reduction configuration. An inactive config
	// contributes nothing, keeping pre-reduction cache keys stable.
	sb.WriteString(sys.Reduce.Desc())
	return sb.String()
}

func writeNames(sb *strings.Builder, label string, names []string) {
	sb.WriteString(label)
	sb.WriteByte('[')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
	}
	sb.WriteString("]\n")
}

func writeExpr(sb *strings.Builder, e form.Expr) {
	if e == nil {
		sb.WriteByte('-')
		return
	}
	sb.WriteString(e.String())
}

// productDesc renders the canonical description of a monitor product: the
// base system's description extended with each monitor's variable, domain,
// and semantic description. It returns false — caching disabled — when any
// monitor lacks a Desc (a hand-rolled monitor with opaque callbacks cannot
// be content-addressed).
func productDesc(sys *System, mons []*Monitor) (string, bool) {
	var sb strings.Builder
	sb.WriteString(sys.CanonicalDesc())
	sb.WriteString("product:\n")
	for _, m := range mons {
		if m.Desc == "" {
			return "", false
		}
		sb.WriteString("monitor ")
		sb.WriteString(m.Var)
		sb.WriteString("=[")
		for i, val := range m.Domain {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(val.String())
		}
		sb.WriteString("] ")
		sb.WriteString(m.Desc)
		sb.WriteByte('\n')
	}
	return sb.String(), true
}
