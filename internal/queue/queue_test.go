package queue

import (
	"testing"

	"opentla/internal/check"
	"opentla/internal/form"
)

func cfg1() Config { return Config{N: 1, Vals: 2} }

// TestSingleQueueInvariants checks basic sanity of the complete system CQ
// (Fig. 6): the internal queue never exceeds its capacity and the output
// channel only carries values from the domain.
func TestSingleQueueInvariants(t *testing.T) {
	for _, c := range []Config{{N: 1, Vals: 2}, {N: 2, Vals: 2}, {N: 1, Vals: 3}} {
		g, err := c.SingleSystem().Build()
		if err != nil {
			t.Fatalf("N=%d K=%d: Build: %v", c.N, c.Vals, err)
		}
		inv := form.Le(form.Len(form.Var("q")), form.IntC(int64(c.N)))
		res, err := check.Invariant(g, inv)
		if err != nil {
			t.Fatalf("N=%d K=%d: Invariant: %v", c.N, c.Vals, err)
		}
		if !res.Holds {
			t.Fatalf("N=%d K=%d: |q| <= N violated:\n%s", c.N, c.Vals, res)
		}
	}
}

// TestSingleQueueLiveness checks that CQ keeps making progress: whenever a
// value is pending on the input channel and the queue has room, it is
// eventually acknowledged (the queue's WF at work).
func TestSingleQueueLiveness(t *testing.T) {
	c := cfg1()
	g, err := c.SingleSystem().Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pendingRoom := form.And(In.Pending(), form.Lt(form.Len(form.Var("q")), form.IntC(int64(c.N))))
	acked := In.Ready()
	res, err := check.Liveness(g, form.LeadsTo(pendingRoom, acked), nil)
	if err != nil {
		t.Fatalf("Liveness: %v", err)
	}
	if !res.Holds {
		t.Fatalf("pending input with room should lead to acknowledgement:\n%s", res)
	}
}

// TestDoubleQueueRefinement is experiment E10 (§A.4): the interleaved
// double-queue system CDQ implements the (2N+1)-element queue CQ^dbl — both
// its environment part and, via the refinement mapping, its queue part with
// safety and fairness.
func TestDoubleQueueRefinement(t *testing.T) {
	c := cfg1()
	g, err := c.DoubleSystem(true).Build()
	if err != nil {
		t.Fatalf("Build CDQ: %v", err)
	}
	t.Logf("CDQ graph: %d states, %d edges", g.NumStates(), g.NumEdges())

	// Environment part of CQ^dbl.
	envRes, err := check.Safety(g, QE("QEdbl", In, Out, c.ValueDomain()).SafetyFormula())
	if err != nil {
		t.Fatalf("Safety(QEdbl): %v", err)
	}
	if !envRes.Holds {
		t.Fatalf("CDQ should implement QE^dbl:\n%s", envRes)
	}

	// Queue part with the refinement mapping.
	res, err := check.Component(g, c.DoubleQueueSpec(), DoubleMapping())
	if err != nil {
		t.Fatalf("Component(QMdbl): %v", err)
	}
	if !res.Holds() {
		t.Fatalf("CDQ should implement QM^dbl under the refinement mapping:\n%s", res)
	}
}

// TestDoubleQueueRefinementNeedsCapacity21 confirms the capacity argument
// behind 2N+1: the composition does NOT implement a queue of capacity 2N
// (the in-flight value on z makes the true capacity 2N+1).
func TestDoubleQueueRefinementNeedsCapacity21(t *testing.T) {
	c := cfg1()
	sys := c.DoubleSystem(true)
	// Give the abstract q the larger domain so the mapping stays in range;
	// the capacity-2N spec must then reject some behavior.
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("Build CDQ: %v", err)
	}
	small := QM("QM2N", 2*c.N, In, Out, "q", c.ValueDomain())
	res, err := check.SafetyUnder(g, small.SafetyOnly().SafetyFormula(), DoubleMapping())
	if err != nil {
		t.Fatalf("SafetyUnder: %v", err)
	}
	if res.Holds {
		t.Fatalf("a 2N-queue spec should NOT be implemented by the composition (capacity is 2N+1)")
	}
}

// TestOpenQueueComposition is experiment E11: the full mechanical check of
// formula (4) of §A.5 via the Composition Theorem, as outlined in Fig. 9.
func TestOpenQueueComposition(t *testing.T) {
	th := cfg1().Fig9Theorem()
	report, err := th.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !report.Valid {
		t.Fatalf("Fig. 9 composition should validate:\n%s", report)
	}
	t.Logf("\n%s", report)
}

// TestOpenQueueCompositionWithoutGFails is experiment E12: dropping the
// interleaving assumption G makes the composition claim (3) invalid — the
// conjunction of the two queues allows simultaneous changes of i.ack and
// o.snd, which the larger queue's guarantee forbids (§A.5).
func TestOpenQueueCompositionWithoutGFails(t *testing.T) {
	th := cfg1().Fig9Theorem()
	// Remove the G pair.
	th.Pairs = th.Pairs[1:]
	report, err := th.Check()
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if report.Valid {
		t.Fatalf("composition without G should NOT validate (formula (3) of §A.5 is invalid):\n%s", report)
	}
}

// TestDoubleSystemWithoutGAllowsSimultaneity pinpoints the §A.5 failure:
// without G, the conjunction of the component specifications admits a step
// changing i.ack and o.snd simultaneously, violating the interleaved
// (2N+1)-queue guarantee.
func TestDoubleSystemWithoutGAllowsSimultaneity(t *testing.T) {
	c := cfg1()
	g, err := c.DoubleSystem(false).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	res, err := check.SafetyUnder(g, c.DoubleQueueSpec().SafetyOnly().SafetyFormula(), DoubleMapping())
	if err != nil {
		t.Fatalf("SafetyUnder: %v", err)
	}
	if res.Holds {
		t.Fatalf("without G the double system should violate QM^dbl's interleaving guarantee")
	}
}
