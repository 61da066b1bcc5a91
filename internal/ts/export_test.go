package ts

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
