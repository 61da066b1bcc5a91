package ts

import "opentla/internal/store"

// RefProduct and DiffGraphs expose the map-based product reference and the
// graph comparison to the external tests of this package.
var (
	RefProduct = refProduct
	DiffGraphs = diffGraphs
)

// UnitSystems returns the small systems the internal tests of this package
// build, for the external tests' oracles.
func UnitSystems() []*System {
	return []*System{counterSystem(3), pairSystem(2), registerSystem()}
}

// Reload rebuilds g from its snapshot as a cache hit does: the returned
// graph has no ID table until its first ID call.
func Reload(g *Graph) *Graph {
	return graphFromSnapshot(g.Sys, g.Ctx, g.Meter(), g.Snapshot(), g.canon)
}

// WithStoreHash makes every exploration and loaded-graph ID table of this
// package intern by h until the returned function restores the default.
// Numbering must not depend on the store's hash; the tests hold it to that.
func WithStoreHash(h store.Hash) (restore func()) {
	newStore = func() *store.Store { return store.NewWithHash(h) }
	return func() { newStore = store.New }
}
