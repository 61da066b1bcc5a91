package ag_test

import (
	"os"
	"testing"

	"opentla/internal/queue"
	"opentla/internal/reduce"
)

// TestClosureLHSCanonicalDescGolden pins the graph-cache key material of
// the Fig. 9 N=1 K=2 closure-LHS system, unreduced and under -reduce sym,
// to exact strings: a change to either silently turns every graph-cache
// entry users already hold into a miss.
func TestClosureLHSCanonicalDescGolden(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	for _, tc := range []struct {
		golden string
		opts   reduce.Options
	}{
		{"testdata/fig9-n1-k2-closure-lhs.desc", reduce.Options{}},
		{"testdata/fig9-n1-k2-closure-lhs-sym.desc", reduce.Options{Sym: true}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		th := cfg.Fig9Theorem()
		th.Reduce, th.Symmetry = tc.opts, cfg.DoubleSymmetry()
		if got := th.ClosureLHS().CanonicalDesc(); got != string(want) {
			t.Errorf("-reduce %s: closure-LHS CanonicalDesc changed; cached graphs would miss.\ngot:\n%s\nwant:\n%s", tc.opts, got, want)
		}
	}
}
