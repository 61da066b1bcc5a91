package ag_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/cache"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/ts"
)

// TestCheckGraphsCanonicalDescGolden pins the graph-cache key material of
// the systems a Fig. 9 N=1 K=2 check builds, to exact strings: a change to
// any of them silently turns every graph-cache entry users already hold
// into a miss. Each system has one golden per -reduce mode.
func TestCheckGraphsCanonicalDescGolden(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	lhs, gonly := (*ag.Theorem).LHSSystem, (*ag.Theorem).GuaranteesSystem
	for _, tc := range []struct {
		golden string
		opts   reduce.Options
		sys    func(*ag.Theorem) *ts.System
	}{
		{"testdata/fig9-n1-k2-full-lhs.desc", reduce.Options{}, lhs},
		{"testdata/fig9-n1-k2-full-lhs-sym.desc", reduce.Options{Sym: true}, lhs},
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

// TestGuaranteesSnapshotGolden pins the SHA-256 of the encoded snapshot of
// the Fig. 9 N=1 K=2 guarantees-only graph, unreduced and under symmetry.
// The digests were first computed by the binding-slice state
// representation, and recomputed for the codec's dictionary format (whose
// dictionaries list values in first-appearance order, so the bytes do not
// depend on the codes the process gave them), so the test proves that
// state numbering, edge order and every snapshot byte are independent of
// how states are stored and of which tests ran first: a change here means
// graph caches users already hold decode to different graphs or miss.
func TestGuaranteesSnapshotGolden(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	for _, tc := range []struct {
		opts   reduce.Options
		states int
		sha    string
	}{
		{reduce.Options{}, 1824, "5157d2110c26e19bd3cc6a1c755168fc804fdf786c34cdda38607a7e93e844ee"},
		{reduce.Options{Sym: true}, 912, "f49532f9b0c6e43c5768e5075ceca78dfdcd7f660bff0401ec8d3e6939eb4c45"},
	} {
		th := cfg.Fig9Theorem()
		th.Reduce, th.Symmetry = tc.opts, cfg.DoubleSymmetry()
		sys := th.GuaranteesSystem()
		g, err := sys.Build()
		if err != nil {
			t.Fatal(err)
		}
		_, sum := cache.Digest(sys.CanonicalDesc())
		data, err := cache.Encode(g.Snapshot(), sum)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.sha || g.NumStates() != tc.states {
			t.Errorf("-reduce %s: snapshot of %d states has SHA-256 %s, want %d states and %s", tc.opts, g.NumStates(), got, tc.states, tc.sha)
		}
	}
}
