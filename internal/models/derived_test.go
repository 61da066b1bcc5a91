package models

import (
	"testing"

	"opentla/internal/arbiter"
	"opentla/internal/queue"
	"opentla/internal/serial"
	"opentla/internal/ts"
	"opentla/internal/ts/tstest"
)

// derivedSystems lists the systems whose successor derivation is
// cross-checked: every registry model and example, both serial systems, the
// closed arbiter, and the Fig. 9 guarantees-only system ⋀C(M_j) that
// hypothesis 2a explores. The queue package checks the Appendix A complete
// systems (CQ, CDQ with and without G, the fused double queue).
func derivedSystems() []*ts.System {
	var out []*ts.System
	for _, m := range append(All(), Examples()...) {
		out = append(out, m.System())
	}
	out = append(out, serial.System(true), serial.System(false), arbiter.System())
	th := queue.Config{N: 1, Vals: 2}.Fig9Theorem()
	gonly := &ts.System{Name: "fig9-guarantees-only", Domains: th.Domains}
	for _, p := range th.Pairs {
		if p.Sys != nil {
			gonly.Components = append(gonly.Components, p.Sys.SafetyOnly())
		}
		gonly.Constraints = append(gonly.Constraints, p.Constraints...)
	}
	return append(out, gonly)
}

// TestDerivedUpdatesMatchBruteForce holds the successor candidates derived
// from each action's definition (form.Ctx.UpdatesFn, the generator ts builds
// graphs with) to brute-force enumeration of the owned variables
// (tstest.BruteUpdates), on every reachable state of every system in
// derivedSystems, for every action.
func TestDerivedUpdatesMatchBruteForce(t *testing.T) {
	for _, sys := range derivedSystems() {
		t.Run(sys.Name, func(t *testing.T) {
			if err := tstest.CheckDerivedUpdates(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// bruteSpaceLimit bounds the assignment space of the systems the
// whole-step oracle enumerates from every reachable state.
const bruteSpaceLimit = 4096

// TestBruteSuccessorsMatchSuccessors holds whole successor sets, the
// output of ts.System.Successors, to the whole-step oracle
// (tstest.BruteSuccessors) on every reachable state of each system in
// derivedSystems whose assignment space is at most bruteSpaceLimit: the
// same successors, none listed twice.
func TestBruteSuccessorsMatchSuccessors(t *testing.T) {
	checked := 0
	for _, sys := range derivedSystems() {
		space := 1
		for _, v := range sys.Vars() {
			if space *= len(sys.Domains[v]); space > bruteSpaceLimit {
				break
			}
		}
		if space > bruteSpaceLimit {
			continue
		}
		checked++
		t.Run(sys.Name, func(t *testing.T) {
			if err := tstest.CheckSuccessors(sys); err != nil {
				t.Fatal(err)
			}
		})
	}
	if checked == 0 {
		t.Fatal("no system small enough to enumerate")
	}
}
