package ag_test

import (
	"fmt"
	"strings"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/arbiter"
	"opentla/internal/circular"
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
	type model struct {
		name string
		mk   func() *ag.Theorem
		pass bool
	}
	models := []model{
		{"circular", circular.SafetyTheorem, true},
		{"arbiter", arbiter.Theorem, true},
	}
	for _, k := range []int{2, 3} {
		cfg := queue.Config{N: 1, Vals: k}
		models = append(models,
			model{fmt.Sprintf("queues/K=%d", k), cfg.Fig9Theorem, true},
			model{fmt.Sprintf("queues-no-g/K=%d", k), func() *ag.Theorem {
				th := cfg.Fig9Theorem()
				th.Pairs = th.Pairs[1:]
				return th
			}, false})
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			a, sides, b := routeVerdicts(t, m.mk)
			if sides && a != b {
				t.Errorf("route A's side conditions hold, but A gives %v and B gives %v", a, b)
			}
			if a != m.pass || b != m.pass {
				t.Errorf("route A gives %v and route B %v, want %v for both", a, b, m.pass)
			}
		})
	}
}
