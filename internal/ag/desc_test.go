package ag_test

import (
	"os"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/ts"
)

// TestCheckGraphsCanonicalDescGolden pins the graph-cache key material of
// the systems a Fig. 9 N=1 K=2 check builds, to exact strings: a change to
// any of them silently turns every graph-cache entry users already hold
// into a miss. The left-hand side is never reduced, so it has one golden
// under every -reduce mode; the guarantees-only system has one per mode.
func TestCheckGraphsCanonicalDescGolden(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	lhs, gonly := (*ag.Theorem).LHSSystem, (*ag.Theorem).GuaranteesSystem
	for _, tc := range []struct {
		golden string
		opts   reduce.Options
		sys    func(*ag.Theorem) *ts.System
	}{
		{"testdata/fig9-n1-k2-full-lhs.desc", reduce.Options{}, lhs},
		{"testdata/fig9-n1-k2-full-lhs.desc", reduce.Options{Sym: true}, lhs},
		{"testdata/fig9-n1-k2-guarantees-only.desc", reduce.Options{}, gonly},
		{"testdata/fig9-n1-k2-guarantees-only-sym.desc", reduce.Options{Sym: true}, gonly},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		th := cfg.Fig9Theorem()
		th.Reduce, th.Symmetry = tc.opts, cfg.DoubleSymmetry()
		if got := tc.sys(th).CanonicalDesc(); got != string(want) {
			t.Errorf("-reduce %s: %s CanonicalDesc changed; cached graphs would miss.\ngot:\n%s\nwant:\n%s", tc.opts, tc.golden, got, want)
		}
	}
}
