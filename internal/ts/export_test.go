package ts

import "opentla/internal/store"

// RefProduct and DiffGraphs expose the map-based product reference and the
// graph comparison to the external tests of this package; RaceEnabled
// tells their allocation pins to skip.
var (
	RefProduct  = refProduct
	DiffGraphs  = diffGraphs
	RaceEnabled = raceEnabled
)

// Expander is an exploration worker's expander (see expandFunc).
type Expander = expandFunc

// Expanders compiles sys and returns the expander factory Build hands its
// workers: each call returns an expander over a fresh scratch, which it
// keeps across its own calls.
func Expanders(sys *System) (func() Expander, error) {
	cs, err := sys.compile()
	if err != nil {
		return nil, err
	}
	return sys.newExpand(cs), nil
}

// ProductExpanders returns the expander factory Product hands its workers
// for the product of g with mons.
func ProductExpanders(g *Graph, mons []*Monitor) (func() Expander, error) {
	x, err := productExtension(g, mons)
	if err != nil {
		return nil, err
	}
	return productExpand(g, mons, x), nil
}

// UnitSystems returns the small systems the internal tests of this package
// build, for the external tests' oracles.
func UnitSystems() []*System {
	return []*System{counterSystem(3), pairSystem(2), registerSystem()}
}

// Reload rebuilds g from its snapshot as a cache hit does: the returned
// graph has no ID table until its first ID call.
func Reload(g *Graph) *Graph {
	r := graphFromSnapshot(g.Sys, g.Ctx, g.Meter(), g.Snapshot())
	r.cz = g.cz
	return r
}

// WithStoreHash makes every exploration and loaded-graph ID table of this
// package intern by h until the returned function restores the default.
// Numbering must not depend on the store's hash; the tests hold it to that.
func WithStoreHash(h store.Hash) (restore func()) {
	newStore = func() *store.Store { return store.NewWithHash(h) }
	return func() { newStore = store.New }
}
