package ag_test

import (
	"fmt"
	"strings"
	"testing"

	"opentla/internal/ag"
	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/queue"
)

// fig9WithoutQ2Fairness is Fig. 9 with the second queue's weak fairness
// dropped: every safety hypothesis still holds, and only (2b)'s liveness
// half fails, since the second queue may now hold a value forever.
func fig9WithoutQ2Fairness(k int) func() *ag.Theorem {
	return func() *ag.Theorem {
		th := queue.Config{N: 1, Vals: k}.Fig9Theorem()
		q2 := *th.Pairs[2].Sys
		q2.Fairness = nil
		th.Pairs[2].Sys = &q2
		return th
	}
}

// phase returns the phase of checkAll that reports hypothesis name: 1 for
// the LHS graph's H1 and 2a(i), 2 for route A's side conditions on the
// guarantees-only graph, 3 for route B's product, and 0 for (2b), which
// the LHS phase checks but every report lists last.
func phase(name string) int {
	switch {
	case strings.HasPrefix(name, "H1["), strings.HasPrefix(name, "H2a-A(i):"):
		return 1
	case strings.HasPrefix(name, "H2a-A("):
		return 2
	case strings.HasPrefix(name, "H2a-B"):
		return 3
	case name == ag.Hyp2bSafety || name == ag.Hyp2bLiveness:
		return 0
	}
	panic("unknown hypothesis " + name)
}

// firstFailing returns the first failing entry of hs, if any.
func firstFailing(hs []ag.HypothesisResult) (ag.HypothesisResult, bool) {
	for _, h := range hs {
		if !h.Holds {
			return h, true
		}
	}
	return ag.HypothesisResult{}, false
}

// stopped returns the entries of a full report that FirstFailure keeps:
// all of them if no entry other than (2b)'s fails, and otherwise those of
// the phases up to the first failure's, then (2b)'s.
func stopped(full []ag.HypothesisResult) []ag.HypothesisResult {
	last := 3
	for _, h := range full {
		if p := phase(h.Name); !h.Holds && p != 0 {
			last = p
			break
		}
	}
	var out []ag.HypothesisResult
	for _, h := range full {
		if phase(h.Name) <= last {
			out = append(out, h)
		}
	}
	return out
}

// isSubsequence reports whether sub lists entries of full, in full's order.
func isSubsequence(sub, full []ag.HypothesisResult) bool {
	i := 0
	for _, h := range full {
		if i < len(sub) && sub[i] == h {
			i++
		}
	}
	return i == len(sub)
}

// TestFirstFailureAgreesWithCheckWith: on every theorem model, and on a
// Fig. 9 variant where only (2b) fails, FirstFailure has CheckWith's
// verdict and first failing entry, and lists a subsequence of CheckWith's
// entries: exactly those of the phases up to the first phase with a
// failure other than (2b)'s, then (2b)'s. So a (2b)-only failure runs every
// phase, and a refuted theorem explores fewer states.
func TestFirstFailureAgreesWithCheckWith(t *testing.T) {
	models := theoremModelsK23()
	for _, k := range []int{2, 3} {
		models = append(models, theoremModel{fmt.Sprintf("queues-no-q2-wf/K=%d", k), fig9WithoutQ2Fairness(k), nil})
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			full, err := m.make().CheckWith(engine.NoLimit())
			if err != nil {
				t.Fatal(err)
			}
			ff, err := m.make().FirstFailure(engine.NoLimit())
			if err != nil {
				t.Fatal(err)
			}
			if ff.Verdict != full.Verdict || ff.Valid != full.Valid {
				t.Errorf("verdict %v (valid %v), CheckWith %v (valid %v)", ff.Verdict, ff.Valid, full.Verdict, full.Valid)
			}
			hf, okF := firstFailing(ff.Hypotheses)
			hc, okC := firstFailing(full.Hypotheses)
			if okF != okC || hf != hc {
				t.Errorf("first failing entry %+v, CheckWith %+v", hf, hc)
			}
			if !isSubsequence(ff.Hypotheses, full.Hypotheses) {
				t.Errorf("FirstFailure's entries are not a subsequence of CheckWith's:\n%v\n%v", ff, full)
			}
			want := stopped(full.Hypotheses)
			if fmt.Sprint(ff.Hypotheses) != fmt.Sprint(want) {
				t.Errorf("FirstFailure lists\n%v\nwant\n%v", ff.Hypotheses, want)
			}
			if len(want) < len(full.Hypotheses) && ff.Stats.States >= full.Stats.States {
				t.Errorf("stopped early but explored %d states, CheckWith %d", ff.Stats.States, full.Stats.States)
			}
		})
	}
}

// TestFirstFailureStopsWhereExpected pins what the agreement test relies
// on: without G the theorem stops after the LHS graph, and without the
// second queue's fairness (2b)'s liveness half is the only failure, so
// FirstFailure must run every phase.
func TestFirstFailureStopsWhereExpected(t *testing.T) {
	cfg := queue.Config{N: 1, Vals: 2}
	noG := cfg.Fig9Theorem()
	noG.Pairs = noG.Pairs[1:]
	r, err := noG.FirstFailure(engine.NoLimit())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range r.Hypotheses {
		if p := phase(h.Name); p > 1 {
			t.Errorf("without G, FirstFailure ran phase %d (%s)", p, h.Name)
		}
	}
	full, err := fig9WithoutQ2Fairness(2)().CheckWith(engine.NoLimit())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range full.Hypotheses {
		if h.Holds != (h.Name != ag.Hyp2bLiveness) {
			t.Errorf("without Q2's fairness: %s holds = %v", h.Name, h.Holds)
		}
	}
}

// TestStaticDisjointImpliesGraphCheck: wherever H2a-A(ii)'s Disjoint(e, m)
// is discharged from the guarantees' step constraints or action frames,
// checking it on the guarantees-only graph holds too. It also pins where
// and how the static route applies: on Fig. 9, whose G covers (e, m), on
// the Corollary, whose fused queue freezes e in every action, and not
// without G, where the graph check refutes it.
func TestStaticDisjointImpliesGraphCheck(t *testing.T) {
	const name = "H2a-A(ii): conj C(Mj) => Disjoint(e, m)  [Prop 4]"
	for _, m := range theoremModelsK23() {
		t.Run(m.name, func(t *testing.T) {
			r, err := m.make().CheckHyp2aPropositionsOnly()
			if err != nil {
				t.Fatal(err)
			}
			var entry *ag.HypothesisResult
			for i, h := range r.Hypotheses {
				if h.Name == name {
					entry = &r.Hypotheses[i]
				}
			}
			th := m.make()
			if th.Concl.Env == nil {
				if entry != nil {
					t.Errorf("empty e, yet %q was checked: %s", name, entry.Detail)
				}
				return
			}
			if entry == nil {
				t.Fatalf("no %q entry in\n%v", name, r)
			}
			static := strings.HasPrefix(entry.Detail, "static: ")
			want := map[string]string{"queues": "static: step constraints G0, G1, G2 cover", "corollary": "static: frames of DQ[N=1] cover"}[strings.Split(m.name, "/")[0]]
			if static != (want != "") || !strings.HasPrefix(entry.Detail, want) {
				t.Errorf("detail %q, want a static discharge %q", entry.Detail, want)
			}
			g, err := th.GuaranteesSystem().Build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := check.Safety(g, form.Disjoint(th.Concl.Env.Outputs, th.Concl.Sys.Outputs))
			if err != nil {
				t.Fatal(err)
			}
			if static && !res.Holds {
				t.Errorf("discharged statically (%s), but the graph check fails:\n%s", entry.Detail, res)
			}
			if !static && (entry.Holds != res.Holds || entry.Detail != res.String()) {
				t.Errorf("graph route reported %v %q, the graph check gives %v %q", entry.Holds, entry.Detail, res.Holds, res.String())
			}
		})
	}
}

// TestFrameMutantFallsBackToGraph: a fused queue whose Deq2 no longer says
// o.ack' = o.ack lets one step change o.ack ∈ e and o.sig ∈ m, so its
// frames must not cover (e, m). H2a-A(ii) then falls back to the graph
// check, which decides it: it fails, with the graph's counterexample.
func TestFrameMutantFallsBackToGraph(t *testing.T) {
	const name = "H2a-A(ii): conj C(Mj) => Disjoint(e, m)  [Prop 4]"
	for _, k := range []int{2, 3} {
		mk := func() *ag.Theorem {
			th := queue.Config{N: 1, Vals: k}.CorollaryTheorem()
			dq := th.Pairs[0].Sys
			for i, a := range dq.Actions {
				if a.Name == "Deq2" {
					dq.Actions[i].Def = dropFrame(t, a.Def, queue.Out.Ack())
				}
			}
			return th
		}
		r, err := mk().CheckHyp2aPropositionsOnly()
		if err != nil {
			t.Fatal(err)
		}
		th := mk()
		g, err := th.GuaranteesSystem().Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := check.Safety(g, form.Disjoint(th.Concl.Env.Outputs, th.Concl.Sys.Outputs))
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds {
			t.Fatalf("K=%d: Deq2 without o.ack' = o.ack still satisfies Disjoint(e, m) on the graph", k)
		}
		found := false
		for _, h := range r.Hypotheses {
			if h.Name == name {
				found = true
				if h.Holds || h.Detail != res.String() {
					t.Errorf("K=%d: %s holds=%v detail %q, want the graph check's failure %q", k, name, h.Holds, h.Detail, res.String())
				}
			}
		}
		if !found {
			t.Fatalf("K=%d: no %q entry in\n%v", k, name, r)
		}
	}
}

// dropFrame returns def without its top-level conjunct v' = v, failing t
// when there is none.
func dropFrame(t *testing.T, def form.Expr, v string) form.Expr {
	t.Helper()
	frame := form.Unchanged(v).String()
	var keep []form.Expr
	dropped := false
	var walk func(form.Expr)
	walk = func(e form.Expr) {
		if a, ok := e.(form.AndE); ok {
			for _, c := range a.Xs {
				walk(c)
			}
			return
		}
		if e.String() == frame {
			dropped = true
			return
		}
		keep = append(keep, e)
	}
	walk(def)
	if !dropped {
		t.Fatalf("%s has no top-level %s", def, frame)
	}
	return form.And(keep...)
}
