package arbiter

import (
	"testing"

	"opentla/internal/ag"
	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/ts"
)

// TestMutexInvariant: the closed system never grants both clients.
func TestMutexInvariant(t *testing.T) {
	g, err := System().Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.Invariant(g, Mutex())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("mutual exclusion violated:\n%s", res)
	}
}

// TestEventualService: under the arbiter's strong fairness and the
// clients' release fairness, every request is eventually granted.
func TestEventualService(t *testing.T) {
	g, err := System().Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		req := form.Eq(form.Var(rvar(i)), form.IntC(1))
		granted := form.Eq(form.Var(gvar(i)), form.IntC(1))
		res, err := check.Liveness(g, form.LeadsTo(req, granted), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Holds {
			t.Fatalf("r%d ↝ g%d should hold:\n%s", i, i, res)
		}
	}
}

// TestWeakFairnessStarves: replacing the arbiter's strong fairness on
// grants with weak fairness permits starvation — the grant action is only
// intermittently enabled under contention, so WF is satisfied by a run
// that never serves client 1. This is the textbook WF/SF separation, and
// exactly why the spec uses SF.
func TestWeakFairnessStarves(t *testing.T) {
	weak := Arbiter()
	for i := range weak.Fairness {
		weak.Fairness[i].Kind = form.Weak
	}
	sys := System()
	sys.Components[0] = weak
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := form.Eq(form.Var("r1"), form.IntC(1))
	granted := form.Eq(form.Var("g1"), form.IntC(1))
	res, err := check.Liveness(g, form.LeadsTo(req, granted), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("weak fairness should allow starvation of client 1")
	}
	if res.Counterexample == nil {
		t.Fatal("expected a starvation counterexample")
	}
}

// TestCompositionTheorem: the circular assumption/guarantee specifications
// of the arbiter and the two clients compose into the unconditional
// complete-system specification.
func TestCompositionTheorem(t *testing.T) {
	report, err := Theorem().Check()
	if err != nil {
		t.Fatal(err)
	}
	if !report.Valid {
		t.Fatalf("arbiter composition should validate:\n%s", report)
	}
	t.Logf("\n%s", report)
}

// TestCompositionWithoutGFails: as with the queues (§A.5), dropping the
// interleaving assumption breaks the composition — the conjunction admits
// simultaneous raises of r1 and r2, which the interleaved conclusion
// forbids.
func TestCompositionWithoutGFails(t *testing.T) {
	th := Theorem()
	th.Pairs = th.Pairs[1:]
	report, err := th.Check()
	if err != nil {
		t.Fatal(err)
	}
	if report.Valid {
		t.Fatalf("composition without G should fail:\n%s", report)
	}
}

// TestArbiterSatisfiesAGSpec: the arbiter alone, in the most general
// environment, satisfies Clients ⊳ ArbiterSafety.
func TestArbiterSatisfiesAGSpec(t *testing.T) {
	sys := &ts.System{
		Name:       "arbiter-alone",
		Components: []*spec.Component{Arbiter()},
		Domains:    Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.WhilePlus(g, ClientsEnv(), Arbiter().SafetyOnly(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() {
		t.Fatalf("Clients -+> Arbiter should hold:\n%s", res)
	}
}

// TestGreedyArbiterViolatesAGSpec: an arbiter that grants without a
// request breaks its guarantee while the environment is still conforming.
func TestGreedyArbiterViolatesAGSpec(t *testing.T) {
	greedy := Arbiter()
	// Grant1 without requiring r1 = 1.
	greedy.Actions[0].Def = form.And(
		is("g1", 0), is("g2", 0),
		set("g1", 1),
		form.Unchanged("g2", "r1", "r2"),
	)
	sys := &ts.System{
		Name:       "greedy-arbiter",
		Components: []*spec.Component{greedy},
		Domains:    Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.WhilePlus(g, ClientsEnv(), Arbiter().SafetyOnly(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds() {
		t.Fatal("a greedy arbiter must violate its A/G specification")
	}
}

// TestMachineClosure: the arbiter's SF+WF fairness is machine closed
// (Proposition 1 applies).
func TestMachineClosure(t *testing.T) {
	res, err := ag.MachineClosure(Arbiter(), Domains())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Closed {
		t.Fatalf("arbiter should be machine closed; stuck at %s", res.StuckState)
	}
}
