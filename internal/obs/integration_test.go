package obs_test

import (
	"strings"
	"testing"

	"opentla/internal/circular"
	"opentla/internal/engine"
	"opentla/internal/obs"
)

// sumExploration adds up the states/transitions deltas of every build: and
// product: span. All state creation happens in graph exploration, which runs
// only inside those spans, so the sum must account for the whole run.
func sumExploration(s *obs.Span) (states, transitions int) {
	if strings.HasPrefix(s.Name, "build:") || strings.HasPrefix(s.Name, "product:") {
		states += s.Stats.States
		transitions += s.Stats.Transitions
	}
	for _, c := range s.Children {
		ds, dt := sumExploration(c)
		states += ds
		transitions += dt
	}
	return states, transitions
}

// TestTheoremSpanTreeAccountsForStats runs a real Composition Theorem check
// under a recorder and checks the acceptance property of the span tree: the
// per-phase exploration deltas sum to the top-level RunStats.
func TestTheoremSpanTreeAccountsForStats(t *testing.T) {
	m := engine.NoLimit()
	rec := obs.New(m)
	th := circular.SafetyTheorem()
	report, err := th.CheckWith(m)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != engine.Holds {
		t.Fatalf("circular safety theorem verdict = %v, want Holds", report.Verdict)
	}
	doc := rec.Finish("test", obs.Config{Model: "circular"}, report.Verdict, "")
	if doc.Span == nil || doc.Span.Name != "run" {
		t.Fatalf("missing root span: %+v", doc.Span)
	}
	if len(doc.Span.Children) != 1 || !strings.HasPrefix(doc.Span.Children[0].Name, "theorem:") {
		t.Fatalf("root children = %+v, want one theorem: span", doc.Span.Children)
	}
	// The theorem span must contain the per-hypothesis grouping spans.
	var hyps []string
	for _, c := range doc.Span.Children[0].Children {
		hyps = append(hyps, c.Name)
	}
	for _, want := range []string{"H1", "H2b"} {
		found := false
		for _, h := range hyps {
			if h == want {
				found = true
			}
		}
		if !found {
			t.Errorf("theorem span children %v missing %q", hyps, want)
		}
	}
	states, transitions := sumExploration(doc.Span)
	if states != doc.Stats.States || states == 0 {
		t.Errorf("build/product span states sum to %d, top-level stats say %d", states, doc.Stats.States)
	}
	if transitions != doc.Stats.Transitions {
		t.Errorf("build/product span transitions sum to %d, top-level stats say %d", transitions, doc.Stats.Transitions)
	}
	if doc.ExhaustedPhase != "" {
		t.Errorf("unexhausted run has exhausted_phase %q", doc.ExhaustedPhase)
	}
}

// TestTheoremBudgetExhaustionNamesPhase exhausts a tiny state budget inside
// a real check and verifies the report names the phase that did it.
func TestTheoremBudgetExhaustionNamesPhase(t *testing.T) {
	// The whole check explores 4 states: 1 in the LHS graph build, 1 in the
	// guarantees-only build and 2 in the +v product. A budget of 1 runs out
	// in the guarantees-only build.
	m := engine.Budget{MaxStates: 1}.Meter()
	rec := obs.New(m)
	th := circular.SafetyTheorem()
	report, err := th.CheckWith(m)
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != engine.Unknown {
		t.Fatalf("verdict = %v, want Unknown under a 1-state budget", report.Verdict)
	}
	doc := rec.Finish("test", obs.Config{MaxStates: 1}, report.Verdict, report.Unknown)
	if doc.ExhaustedPhase == "" || !strings.Contains(doc.ExhaustedPhase, "build:") {
		t.Errorf("exhausted_phase = %q, want a path through a build: span", doc.ExhaustedPhase)
	}
	if len(doc.Events) == 0 {
		t.Error("UNKNOWN report should include flight-recorder events")
	}
	last := doc.Events[len(doc.Events)-1]
	if last.Kind != "budget-exhausted" && last.Kind != "unknown-verdict" {
		t.Errorf("last event kind = %q, want exhaustion-related", last.Kind)
	}
}
