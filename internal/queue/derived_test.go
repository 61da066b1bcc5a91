package queue

import (
	"testing"

	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/ts/tstest"
)

// TestDerivedUpdatesMatchBruteForce holds the successors derived from each
// queue action's definition to brute-force enumeration of the owned
// variables, on every reachable state of the Appendix A complete systems:
// CQ, CDQ with and without G, and the fused double queue with its
// environment.
func TestDerivedUpdatesMatchBruteForce(t *testing.T) {
	cfg := cfg1()
	cor := cfg.CorollaryTheorem()
	for _, sys := range []*ts.System{
		cfg.SingleSystem(), cfg.DoubleSystem(true), cfg.DoubleSystem(false),
		{Name: "fused", Components: []*spec.Component{cor.Concl.Env, cor.Pairs[0].Sys}, Domains: cor.Domains},
	} {
		t.Run(sys.Name, func(t *testing.T) {
			if err := tstest.CheckDerivedUpdates(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}
