package check

import (
	"fmt"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// bitsOnto builds the one-state graph of n bit variables x00, x01, …, all
// 0, with d ∈ {0, 1} declared, under meter m, and returns it with the
// mapping d ↦ (Σ xᵢ) % 2, which is onto d's domain through all 2ⁿ points.
func bitsOnto(t testing.TB, n int, m *engine.Meter) (*ts.Graph, map[string]form.Expr) {
	t.Helper()
	var names []string
	var init []form.Expr
	sum := form.Expr(form.IntC(0))
	doms := map[string][]value.Value{"d": value.Bits()}
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("x%02d", i)
		names = append(names, v)
		init = append(init, form.Eq(form.Var(v), form.IntC(0)))
		sum = form.Add(sum, form.Var(v))
		doms[v] = value.Bits()
	}
	sys := &ts.System{Name: "bits", Components: []*spec.Component{{Name: "bits", Outputs: names, Init: form.And(init...)}}, Domains: doms}
	g, err := sys.BuildWith(m)
	if err != nil {
		t.Fatal(err)
	}
	return g, map[string]form.Expr{"d": form.Mod(sum, form.IntC(2))}
}

// TestMapsOntoStopsAtBudget: the onto check maps its points under the
// graph's meter, so an exhausted budget stops it, and the mask falls back.
func TestMapsOntoStopsAtBudget(t *testing.T) {
	m := engine.NoLimit()
	g, mapping := bitsOnto(t, 8, m)
	im, err := imagesOf(g, mapping, new(*state.State))
	if err != nil {
		t.Fatal(err)
	}
	if !im.mapsOnto(g) {
		t.Fatal("d ↦ (Σ xᵢ) % 2 is not onto {0, 1}")
	}
	m.Abort("test")
	if im.mapsOnto(g) {
		t.Fatal("onto under an exhausted budget")
	}
}

// BenchmarkMapsOnto times the onto check of abstractSide at 2¹² and at
// maxOntoPoints points, one variable per factor of 2.
func BenchmarkMapsOnto(b *testing.B) {
	for _, n := range []int{12, 16} {
		g, mapping := bitsOnto(b, n, engine.NoLimit())
		im, err := imagesOf(g, mapping, new(*state.State))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("points=%d", 1<<n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !im.mapsOnto(g) {
					b.Fatal("not onto")
				}
			}
		})
	}
}
