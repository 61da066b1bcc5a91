package queue

import (
	"strings"
	"testing"

	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/handshake"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// Failure-injection suite: each broken queue implementation below deviates
// from the paper's queue in one way; the model checker must reject it
// against the QM specification (with the hostile deviation caught in a
// counterexample trace). These tests pin down that the checker has real
// discriminating power — a checker that accepts everything would pass all
// the positive tests too.

// buildWithQM builds the complete system QE ∧ broken and checks it against
// the real queue guarantee QM.
func checkAgainstQM(t *testing.T, c Config, broken *spec.Component, domains map[string][]value.Value) *check.SpecResult {
	t.Helper()
	if domains == nil {
		domains = c.Domains()
	}
	sys := &ts.System{
		Name:       "QE-and-" + broken.Name,
		Components: []*spec.Component{QE("QE", In, Out, c.ValueDomain()), broken},
		Domains:    domains,
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	spec := QM("QM", c.N, In, Out, "q", c.ValueDomain())
	res, err := check.Component(g, spec, nil)
	if err != nil {
		t.Fatalf("Component: %v", err)
	}
	return res
}

// droppingQueue acknowledges input values without storing them.
func droppingQueue(c Config) *spec.Component {
	qm := QM("dropper", c.N, In, Out, "q", c.ValueDomain())
	drop := form.And(
		handshake.AckAction(In),
		form.Unchanged("q"),
		form.Unchanged(Out.Vars()...),
	)
	qm.Actions[0] = spec.Action{
		Name: "DropEnq",
		Def:  drop,
	}
	return qm
}

func TestCheckerCatchesDroppedValues(t *testing.T) {
	c := cfg1()
	res := checkAgainstQM(t, c, droppingQueue(c), nil)
	if res.Holds() {
		t.Fatal("a queue that drops values must not satisfy QM")
	}
	if res.Safety == nil || res.Safety.Holds {
		t.Fatal("expected a safety violation")
	}
	if len(res.Safety.Trace) == 0 {
		t.Fatal("expected a counterexample trace")
	}
}

// reorderingQueue prepends instead of appending: LIFO, not FIFO.
func reorderingQueue(c Config) *spec.Component {
	qm := QM("reorderer", c.N, In, Out, "q", c.ValueDomain())
	q := form.Var("q")
	lifo := form.And(
		form.Lt(form.Len(q), form.IntC(int64(c.N))),
		handshake.AckAction(In),
		form.Eq(form.PrimedVar("q"), form.Concat(form.TupleOf(form.Var(In.Val())), q)),
		form.Unchanged(Out.Vars()...),
	)
	qm.Actions[0] = spec.Action{
		Name: "PushFront",
		Def:  lifo,
	}
	return qm
}

func TestCheckerCatchesReordering(t *testing.T) {
	// N=1 cannot reorder; use N=2 so LIFO differs from FIFO.
	c := Config{N: 2, Vals: 2}
	res := checkAgainstQM(t, c, reorderingQueue(c), nil)
	if res.Holds() {
		t.Fatal("a LIFO buffer must not satisfy the FIFO queue spec")
	}
}

// overflowQueue admits N+1 elements (off-by-one capacity check).
func overflowQueue(c Config) *spec.Component {
	qm := QM("overflower", c.N, In, Out, "q", c.ValueDomain())
	q := form.Var("q")
	over := form.And(
		form.Le(form.Len(q), form.IntC(int64(c.N))), // ≤ instead of <
		handshake.AckAction(In),
		form.Eq(form.PrimedVar("q"), form.AppendTo(q, form.Var(In.Val()))),
		form.Unchanged(Out.Vars()...),
	)
	qm.Actions[0] = spec.Action{
		Name: "OverEnq",
		Def:  over,
	}
	return qm
}

func TestCheckerCatchesOverflow(t *testing.T) {
	c := cfg1()
	// Give q room for the overflow so the deviation is expressible.
	domains := c.Domains()
	domains["q"] = value.Seqs(c.ValueDomain(), c.N+1)
	res := checkAgainstQM(t, c, overflowQueue(c), domains)
	if res.Holds() {
		t.Fatal("an over-capacity queue must not satisfy QM")
	}
}

// corruptingQueue sends Head(q) but with the value replaced by 0 when it
// should be 1 (a data corruption on dequeue).
func corruptingQueue(c Config) *spec.Component {
	qm := QM("corruptor", c.N, In, Out, "q", c.ValueDomain())
	q := form.Var("q")
	corrupt := form.And(
		form.Gt(form.Len(q), form.IntC(0)),
		handshake.Send(form.IntC(0), Out), // always sends 0
		form.Eq(form.PrimedVar("q"), form.Tail(q)),
		form.Unchanged(In.Vars()...),
	)
	qm.Actions[1] = spec.Action{
		Name: "CorruptDeq",
		Def:  corrupt,
	}
	return qm
}

func TestCheckerCatchesCorruption(t *testing.T) {
	c := cfg1()
	res := checkAgainstQM(t, c, corruptingQueue(c), nil)
	if res.Holds() {
		t.Fatal("a corrupting queue must not satisfy QM")
	}
	// The violation should mention the queue's box.
	if res.Safety != nil && !res.Safety.Holds &&
		!strings.Contains(res.Safety.Violation, "violates") {
		t.Errorf("unexpected violation text: %s", res.Safety.Violation)
	}
}

// protocolViolatingQueue acknowledges the input even when no value is
// pending (sig = ack) — a handshake protocol violation.
func protocolViolatingQueue(c Config) *spec.Component {
	qm := QM("eager-acker", c.N, In, Out, "q", c.ValueDomain())
	eager := form.And(
		form.Eq(form.PrimedVar(In.Ack()), form.Sub(form.IntC(1), form.Var(In.Ack()))),
		form.Unchanged(In.Sig(), In.Val()),
		form.Unchanged("q"),
		form.Unchanged(Out.Vars()...),
	)
	qm.Actions = append(qm.Actions, spec.Action{
		Name: "EagerAck",
		Def:  eager,
	})
	return qm
}

func TestCheckerCatchesProtocolViolation(t *testing.T) {
	c := cfg1()
	res := checkAgainstQM(t, c, protocolViolatingQueue(c), nil)
	if res.Holds() {
		t.Fatal("an eager acker must not satisfy QM")
	}
}

// TestCheckerCatchesMissingFairness: removing the queue's WF lets it stall;
// the liveness part of the QM check must fail while safety still holds.
func TestCheckerCatchesMissingFairness(t *testing.T) {
	c := cfg1()
	lazy := QM("lazy", c.N, In, Out, "q", c.ValueDomain())
	lazy.Fairness = nil
	res := checkAgainstQM(t, c, lazy, nil)
	if res.Safety == nil || !res.Safety.Holds {
		t.Fatal("the lazy queue's safety should be fine")
	}
	if res.Liveness == nil || res.Liveness.Holds {
		t.Fatal("the lazy queue must fail QM's fairness")
	}
	if res.Liveness.Counterexample == nil {
		t.Fatal("expected a fair-lasso counterexample")
	}
}

// TestWhilePlusCatchesEagerViolation: the eager acker also fails its
// assumption/guarantee spec QE ⊳ QM — it violates the guarantee while the
// environment is still behaving.
func TestWhilePlusCatchesEagerViolation(t *testing.T) {
	c := cfg1()
	broken := protocolViolatingQueue(c)
	sys := &ts.System{
		Name:       "broken-open",
		Components: []*spec.Component{broken},
		Domains:    c.Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.WhilePlus(g,
		QE("QE", In, Out, c.ValueDomain()),
		QM("QM", c.N, In, Out, "q", c.ValueDomain()),
		map[string]form.Expr{"q": form.Var("q")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds() {
		t.Fatal("QE -+> QM must fail for the eager acker")
	}
}

// TestWhilePlusHoldsForRealQueue: the genuine queue satisfies its A/G spec
// against the most general environment.
func TestWhilePlusHoldsForRealQueue(t *testing.T) {
	c := cfg1()
	qm := QM("QM", c.N, In, Out, "q", c.ValueDomain())
	sys := &ts.System{
		Name:       "queue-open",
		Components: []*spec.Component{qm},
		Domains:    c.Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.WhilePlus(g,
		QE("QE", In, Out, c.ValueDomain()),
		QM("QMspec", c.N, In, Out, "q", c.ValueDomain()),
		map[string]form.Expr{"q": form.Var("q")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() {
		t.Fatalf("QE -+> QM should hold for the real queue:\n%s", res)
	}
}
