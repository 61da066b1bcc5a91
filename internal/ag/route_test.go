package ag_test

import (
	"strings"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/form"
	"opentla/internal/queue"
)

// routeVerdicts runs both routes for hypothesis 2a of th and returns route
// A's verdict (every H2a-A line holds), whether A's side conditions (ii)
// and (iii) hold, and route B's verdict.
func routeVerdicts(t *testing.T, mk func() *ag.Theorem) (a, sides, b bool) {
	t.Helper()
	ra, err := mk().CheckHyp2aPropositionsOnly()
	if err != nil {
		t.Fatal(err)
	}
	a, sides = true, true
	n := 0
	for _, h := range ra.Hypotheses {
		if !strings.HasPrefix(h.Name, "H2a-A(") {
			continue
		}
		n++
		a = a && h.Holds
		if !strings.HasPrefix(h.Name, "H2a-A(i)") {
			sides = sides && h.Holds
		}
	}
	rb, err := mk().CheckHyp2aDirectOnly()
	if err != nil {
		t.Fatal(err)
	}
	var bs []bool
	for _, h := range rb.Hypotheses {
		if strings.HasPrefix(h.Name, "H2a-B") {
			bs = append(bs, h.Holds)
		}
	}
	if n != 4 || len(bs) != 1 {
		t.Fatalf("route A reported %d H2a-A lines (want 4), route B %d H2a-B lines (want 1)", n, len(bs))
	}
	return a, sides, bs[0]
}

// TestHyp2aRoutesAgree: on every theorem model, the paper's route to
// hypothesis 2a (Propositions 3 and 4) and the direct +v monitor product
// agree wherever route A's side conditions hold, since A is then exact for
// 2a. It also pins today's verdicts: queues-no-g fails both routes and the
// other models pass both.
func TestHyp2aRoutesAgree(t *testing.T) {
	for _, m := range theoremModelsK23() {
		t.Run(m.name, func(t *testing.T) {
			a, sides, b := routeVerdicts(t, m.make)
			if sides && a != b {
				t.Errorf("route A's side conditions hold, but A gives %v and B gives %v", a, b)
			}
			pass := !strings.HasPrefix(m.name, "queues-no-g/")
			if a != pass || b != pass {
				t.Errorf("route A gives %v and route B %v, want %v for both", a, b, pass)
			}
		})
	}
}

// TestHoldingEntriesCarryNoMissingDetail: a holding entry of the Fig. 9
// check at N=1, K=2 has no detail naming missing variables, and H2a-A(iii)
// keeps its "missing from v" list when v omits C(M)'s free variables.
func TestHoldingEntriesCarryNoMissingDetail(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	r, err := cfg.Fig9Theorem().Check()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range r.Hypotheses {
		if h.Holds && strings.Contains(h.Detail, "missing") {
			t.Errorf("holding entry %q has detail %q", h.Name, h.Detail)
		}
	}
	th := cfg.Fig9Theorem()
	th.Concl.PlusSub = form.VarTuple()
	r, err = th.CheckHyp2aPropositionsOnly()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range r.Hypotheses {
		if strings.HasPrefix(h.Name, "H2a-A(iii)") {
			found = true
			if h.Holds || !strings.HasPrefix(h.Detail, "missing from v: [") {
				t.Errorf("H2a-A(iii) with an empty v: holds %v, detail %q", h.Holds, h.Detail)
			}
		}
	}
	if !found {
		t.Error("no H2a-A(iii) entry")
	}
}
