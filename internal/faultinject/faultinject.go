// Package faultinject is a spec mutation-testing harness for the checking
// engine. Each Mutation plants a single, deliberate fault in the Figure 9
// Composition Theorem instance (drop an initial-state conjunct, corrupt an
// action, delete a fairness condition, weaken the interleaving assumption,
// truncate the refinement mapping, or restrict an assumption) and records
// which proof obligation catches it. A mutant that no hypothesis rejects — a
// survivor — is evidence of a hole in the checker, exactly as a surviving
// mutant in mutation testing is evidence of a hole in a test suite.
package faultinject

import (
	"fmt"

	"opentla/internal/ag"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/handshake"
	"opentla/internal/queue"
	"opentla/internal/spec"
)

// Kind classifies what part of the specification a mutation corrupts.
type Kind string

// The mutation kinds of the catalog.
const (
	KindInit         Kind = "init"         // weaken an initial predicate
	KindAction       Kind = "action"       // corrupt an action definition
	KindFairness     Kind = "fairness"     // delete a WF/SF condition
	KindInterleaving Kind = "interleaving" // weaken the Disjoint assumption G
	KindMapping      Kind = "mapping"      // truncate the refinement mapping
	KindEnv          Kind = "env"          // restrict a pair's assumption
)

// Mutation is one injected specification fault.
type Mutation struct {
	Name        string
	Kind        Kind
	Description string
	// WantFail is a substring the detecting obligation's name must contain
	// (e.g. "H2a", "H1["); empty accepts any detector.
	WantFail string
	// Apply plants the fault in a freshly built theorem instance.
	Apply func(th *ag.Theorem) error
}

// Result records whether and how one mutant was rejected.
type Result struct {
	Mutation string
	Detected bool
	// FailedHypothesis names the obligation that rejected the mutant.
	FailedHypothesis string
	// Detail carries the rejecting counterexample.
	Detail string
}

// Run applies each mutation to its own copy of the Figure 9 theorem at the
// given configuration and reports detection results in catalog order. It
// first verifies that the unmutated theorem is valid — detection of faults
// is meaningless against a baseline that already fails. Each mutant check
// draws a fresh meter from the budget.
func Run(cfg queue.Config, muts []Mutation, b engine.Budget) ([]Result, error) {
	base, err := cfg.Fig9Theorem().CheckWith(b.Meter())
	if err != nil {
		return nil, fmt.Errorf("faultinject baseline: %w", err)
	}
	if base.Verdict != engine.Holds {
		return nil, fmt.Errorf("faultinject baseline is not valid (verdict %s); mutation results would be meaningless:\n%s",
			base.Verdict, base)
	}
	results := make([]Result, 0, len(muts))
	for _, mu := range muts {
		th := cfg.Fig9Theorem()
		if err := mu.Apply(th); err != nil {
			return nil, fmt.Errorf("mutant %s: apply: %w", mu.Name, err)
		}
		rep, err := th.CheckWith(b.Meter())
		if err != nil {
			return nil, fmt.Errorf("mutant %s: check: %w", mu.Name, err)
		}
		res := Result{Mutation: mu.Name, Detected: rep.Verdict == engine.Violated}
		for _, h := range rep.Hypotheses {
			if !h.Holds {
				res.FailedHypothesis = h.Name
				res.Detail = h.Detail
				break
			}
		}
		if rep.Verdict == engine.Unknown {
			res.Detail = "check aborted: " + rep.Unknown
		}
		results = append(results, res)
	}
	return results, nil
}

// pairByName finds a theorem pair, or errors.
func pairByName(th *ag.Theorem, name string) (*ag.Pair, error) {
	for i := range th.Pairs {
		if th.Pairs[i].Name == name {
			return &th.Pairs[i], nil
		}
	}
	return nil, fmt.Errorf("theorem %s has no pair %q", th.Name, name)
}

// dropLastConjunct removes the last conjunct of a conjunction, weakening
// the predicate; a non-conjunction is returned unchanged.
func dropLastConjunct(e form.Expr) (form.Expr, error) {
	and, ok := e.(form.AndE)
	if !ok || len(and.Xs) < 2 {
		return nil, fmt.Errorf("expected a conjunction with >= 2 conjuncts, got %s", e)
	}
	return form.And(and.Xs[:len(and.Xs)-1]...), nil
}

// Catalog returns the standard mutant set over the Figure 9 theorem at the
// given configuration. Every mutant must be detected — see the package
// test, which asserts zero survivors.
func Catalog(cfg queue.Config) []Mutation {
	n := int64(cfg.N)
	return []Mutation{
		{
			Name: "init-drop-q1-empty",
			Kind: KindInit,
			Description: "drop the q1 = << >> conjunct of QM1's initial predicate: " +
				"the first queue may start non-empty, so the abstract queue starts non-empty",
			WantFail: "H2a",
			Apply: func(th *ag.Theorem) error {
				p, err := pairByName(th, "Q1")
				if err != nil {
					return err
				}
				p.Sys.Init, err = dropLastConjunct(p.Sys.Init)
				return err
			},
		},
		{
			Name: "init-drop-concl-env",
			Kind: KindInit,
			Description: "delete the conclusion environment's initial predicate CInit(i): " +
				"the composed system may start mid-handshake, violating each pair's assumption",
			WantFail: "H1[",
			Apply: func(th *ag.Theorem) error {
				th.Concl.Env.Init = nil
				return nil
			},
		},
		{
			Name: "enq-wrong-value",
			Kind: KindAction,
			Description: "QM1's Enq appends the constant 0 instead of the value on i: " +
				"the abstract queue's Enq step no longer matches",
			WantFail: "H2a",
			Apply: func(th *ag.Theorem) error {
				p, err := pairByName(th, "Q1")
				if err != nil {
					return err
				}
				q := form.Var("q1")
				def := form.And(
					form.Lt(form.Len(q), form.IntC(n)),
					handshake.AckAction(queue.In),
					form.Eq(form.PrimedVar("q1"), form.AppendTo(q, form.IntC(0))),
					form.Unchanged(queue.Mid.Vars()...),
				)
				p.Sys.Actions[0] = spec.Action{Name: "Enq", Def: def}
				return nil
			},
		},
		{
			Name: "deq-forgets-pop",
			Kind: KindAction,
			Description: "QM2's Deq sends the head of q2 but leaves q2 unchanged: " +
				"the abstract queue's contents stop tracking the output",
			WantFail: "H2a",
			Apply: func(th *ag.Theorem) error {
				p, err := pairByName(th, "Q2")
				if err != nil {
					return err
				}
				q := form.Var("q2")
				def := form.And(
					form.Gt(form.Len(q), form.IntC(0)),
					handshake.Send(form.Head(q), queue.Out),
					form.Eq(form.PrimedVar("q2"), q),
					form.Unchanged(queue.Mid.Vars()...),
				)
				p.Sys.Actions[1] = spec.Action{Name: "Deq", Def: def}
				return nil
			},
		},
		{
			Name: "fairness-drop-qm1",
			Kind: KindFairness,
			Description: "delete QM1's WF(Enq \\/ Deq): a value may sit in the first " +
				"queue forever, starving the abstract queue's own fairness",
			WantFail: "H2b",
			Apply: func(th *ag.Theorem) error {
				p, err := pairByName(th, "Q1")
				if err != nil {
					return err
				}
				p.Sys.Fairness = nil
				return nil
			},
		},
		{
			Name: "fairness-drop-qm2",
			Kind: KindFairness,
			Description: "delete QM2's WF(Enq \\/ Deq): a value may sit in the second " +
				"queue forever",
			WantFail: "H2b",
			Apply: func(th *ag.Theorem) error {
				p, err := pairByName(th, "Q2")
				if err != nil {
					return err
				}
				p.Sys.Fairness = nil
				return nil
			},
		},
		{
			Name: "disjoint-drop-first-pair",
			Kind: KindInterleaving,
			Description: "drop the first pairwise constraint of the interleaving " +
				"assumption G: the environment and the first queue may step " +
				"simultaneously, which the second queue's assumption (a pure " +
				"interleaving spec) already rejects",
			WantFail: "H1[Q2]",
			Apply: func(th *ag.Theorem) error {
				p, err := pairByName(th, "G")
				if err != nil {
					return err
				}
				if len(p.Constraints) < 2 {
					return fmt.Errorf("pair G has %d constraints, expected >= 2", len(p.Constraints))
				}
				p.Constraints = p.Constraints[1:]
				return nil
			},
		},
		{
			Name: "mapping-truncate",
			Kind: KindMapping,
			Description: "truncate the refinement mapping to q-bar = q1, forgetting " +
				"the second queue and the value in flight on z",
			WantFail: "H2a",
			Apply: func(th *ag.Theorem) error {
				th.Concl.Mapping = map[string]form.Expr{"q": form.Var("q1")}
				return nil
			},
		},
		{
			Name: "env-restrict-q1-put",
			Kind: KindEnv,
			Description: "restrict pair Q1's assumption so its Put only ever sends 0: " +
				"the composed environment's arbitrary sends are no longer covered",
			WantFail: "H1[",
			Apply: func(th *ag.Theorem) error {
				p, err := pairByName(th, "Q1")
				if err != nil {
					return err
				}
				put := form.And(
					handshake.Send(form.IntC(0), queue.In),
					form.Unchanged(queue.Mid.Vars()...),
				)
				p.Env.Actions[0] = spec.Action{Name: "Put", Def: put}
				return nil
			},
		},
	}
}
