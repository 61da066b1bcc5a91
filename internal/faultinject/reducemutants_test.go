package faultinject

import (
	"testing"

	"opentla/internal/engine"
)

// TestAllReduceMutantsDetected is the reduction harness's acceptance
// criterion: every sabotage seam of reduce.Sabotage, flipped alone, must
// change a safety verdict between the full and the sabotaged reduced graph
// of its miniature system, and the validation mutant must have its group
// disabled. Zero survivors — a surviving seam would mean the
// reduced-vs-full cross-check cannot see that class of reduction bug.
func TestAllReduceMutantsDetected(t *testing.T) {
	muts := ReduceCatalog()
	if len(muts) != 3 {
		t.Fatalf("catalog has %d mutants, want 3 (one per sabotage seam, one validation mutant)", len(muts))
	}
	results, err := RunReduce(muts, engine.Budget{MaxStates: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(muts) {
		t.Fatalf("got %d results for %d mutants", len(results), len(muts))
	}
	for i, r := range results {
		if !r.Detected {
			t.Errorf("reduction mutant %s SURVIVED (%s)", r.Mutation, muts[i].Description)
			continue
		}
		if r.Detail == "" {
			t.Errorf("reduction mutant %s detected without detail", r.Mutation)
		}
		t.Logf("mutant %-24s %s", r.Mutation, r.Detail)
	}
}

// TestReduceCatalogCoversEverySeam pins the catalog to the Sabotage struct:
// each seam is flipped by exactly one mutant, alone.
func TestReduceCatalogCoversEverySeam(t *testing.T) {
	want := map[string]bool{
		"collapse-values":   false,
		"skip-tuple-values": false,
	}
	for _, mu := range ReduceCatalog() {
		if mu.Apply != nil {
			continue // a validation mutant flips no seam
		}
		s := mu.Sabotage.String()
		seen, ok := want[s]
		if !ok {
			t.Errorf("mutant %s flips %q, which is not a single known seam", mu.Name, s)
			continue
		}
		if seen {
			t.Errorf("seam %q flipped by more than one mutant", s)
		}
		want[s] = true
	}
	for seam, seen := range want {
		if !seen {
			t.Errorf("no mutant flips seam %q", seam)
		}
	}
}

// TestReduceMutantBaselines re-checks harness validity in isolation: for
// every seam mutant the UNsabotaged reduction must agree with the full
// build, and for the validation mutant the unmutated theorem must keep its
// group (RunReduce also enforces this, but a broken baseline should read
// as a baseline failure, not a survivor).
func TestReduceMutantBaselines(t *testing.T) {
	for _, mu := range ReduceCatalog() {
		mu := mu
		t.Run(mu.Name, func(t *testing.T) {
			if mu.Apply != nil {
				rep, notes, err := mu.symRun(mu.Config.Fig9Theorem(), true, engine.Budget{MaxStates: 100_000})
				if err != nil || len(notes) > 0 || rep.Verdict != engine.Holds {
					t.Fatalf("unmutated theorem under -reduce sym: %v, disabled by %v, error %v", rep, notes, err)
				}
				return
			}
			sys := mu.System()
			sys.Reduce = mu.config(nil)
			if _, err := sys.Build(); err != nil {
				t.Fatalf("sound reduced build: %v", err)
			}
		})
	}
}
