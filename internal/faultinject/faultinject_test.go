package faultinject

import (
	"strings"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/queue"
)

// TestAllMutantsDetected is the harness's acceptance criterion: every
// injected specification fault must be rejected by some proof obligation,
// with a non-empty counterexample, and by the obligation the catalog
// predicts. Zero survivors.
func TestAllMutantsDetected(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	muts := Catalog(cfg)
	if len(muts) < 8 {
		t.Fatalf("catalog has %d mutants, want >= 8", len(muts))
	}
	results, err := Run(cfg, muts, engine.Budget{MaxStates: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(muts) {
		t.Fatalf("got %d results for %d mutants", len(results), len(muts))
	}
	for i, r := range results {
		mu := muts[i]
		if !r.Detected {
			t.Errorf("mutant %s SURVIVED (%s)", r.Mutation, mu.Description)
			continue
		}
		if mu.WantFail != "" && !strings.Contains(r.FailedHypothesis, mu.WantFail) {
			t.Errorf("mutant %s detected by %q, want an obligation containing %q",
				r.Mutation, r.FailedHypothesis, mu.WantFail)
		}
		if r.Detail == "" {
			t.Errorf("mutant %s detected without a counterexample", r.Mutation)
		}
		t.Logf("mutant %-24s killed by %s", r.Mutation, r.FailedHypothesis)
	}
}

// TestMutantsAreIsolated checks that Run mutates fresh theorem copies: the
// shared configuration must still produce a valid baseline afterwards.
func TestMutantsAreIsolated(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	th := cfg.Fig9Theorem()
	muts := Catalog(cfg)
	for _, mu := range muts {
		fresh := cfg.Fig9Theorem()
		if err := mu.Apply(fresh); err != nil {
			t.Fatalf("apply %s: %v", mu.Name, err)
		}
	}
	rep, err := th.CheckWith(engine.Budget{MaxStates: 5_000_000}.Meter())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != engine.Holds {
		t.Fatalf("baseline theorem no longer valid after applying mutations to copies:\n%s", rep)
	}
}
