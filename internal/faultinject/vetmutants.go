package faultinject

import (
	"fmt"

	"opentla/internal/ag"
	"opentla/internal/form"
	"opentla/internal/queue"
	"opentla/internal/vet"
)

// KindPartition marks mutations that corrupt a component's variable
// partition (duplicate or clashing declarations).
const KindPartition Kind = "partition"

// VetMutation is one injected well-formedness fault, aimed at the static
// analyzer rather than the model checker: each mutant breaks a canonical-
// form side condition in a way that leaves the spec mechanically checkable
// (the graphs still build) but makes the resulting verdict meaningless.
// The analyzer must reject every one — a surviving mutant is a hole in the
// analyzer exactly as a Catalog survivor is a hole in the checker.
type VetMutation struct {
	Name        string
	Kind        Kind
	Description string
	// WantCodes are the diagnostic codes the analyzer must report.
	WantCodes []string
	// Apply plants the fault in a freshly built Figure 9 theorem.
	Apply func(th *ag.Theorem) error
}

// VetResult records how the analyzer handled one ill-formed mutant.
type VetResult struct {
	Mutation string
	// Detected is true when every expected code was reported and at least
	// one finding was warn-severity or above.
	Detected bool
	// Found are the diagnostic codes the analyzer reported, in order.
	Found []string
	// Missing are expected codes the analyzer failed to report.
	Missing []string
}

// VetCatalog returns the ill-formed-spec mutant set over the Figure 9
// theorem: one mutant per static-analysis family. See the package test,
// which asserts the analyzer kills all of them.
func VetCatalog(cfg queue.Config) []VetMutation {
	q1Pair := func(th *ag.Theorem) (*ag.Pair, error) { return pairByName(th, "Q1") }
	muts := []VetMutation{
		{
			Name: "vet-unowned-write",
			Kind: KindAction,
			Description: "QM1's Enq also empties q2, the second queue's internal " +
				"variable: a write into another component's owned set",
			WantCodes: []string{"SV001", "SV003"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				p.Sys.Actions[0].Def = form.And(p.Sys.Actions[0].Def,
					form.Eq(form.PrimedVar("q2"), form.EmptySeq))
				return nil
			},
		},
		{
			Name: "vet-primed-input",
			Kind: KindAction,
			Description: "QM1's Enq constrains i.val', the value wire it only " +
				"reads: a component writing its own input",
			WantCodes: []string{"SV002"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				p.Sys.Actions[0].Def = form.And(p.Sys.Actions[0].Def,
					form.Eq(form.PrimedVar(queue.In.Val()), form.IntC(0)))
				return nil
			},
		},
		{
			Name: "vet-overlapping-outputs",
			Kind: KindPartition,
			Description: "QM1 also declares o.sig as an output, clashing with " +
				"QM2's ownership of the o channel's send wires",
			WantCodes: []string{"SV011"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				p.Sys.Outputs = append(p.Sys.Outputs, queue.Out.Sig())
				return nil
			},
		},
		{
			Name: "vet-duplicate-decl",
			Kind: KindPartition,
			Description: "QM1 declares z.sig as an input while already owning it " +
				"as an output: a broken variable partition",
			WantCodes: []string{"SV010"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				p.Sys.Inputs = append(p.Sys.Inputs, queue.Mid.Sig())
				return nil
			},
		},
		{
			Name: "vet-bad-fairness-sub",
			Kind: KindFairness,
			Description: "QM1's fairness subscript becomes q1', a primed " +
				"expression — not a state function",
			WantCodes: []string{"SV030"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				if len(p.Sys.Fairness) == 0 {
					return fmt.Errorf("pair Q1 has no fairness to corrupt")
				}
				p.Sys.Fairness[0].Sub = form.PrimedVar("q1")
				return nil
			},
		},
		{
			Name: "vet-missing-disjoint",
			Kind: KindInterleaving,
			Description: "delete the interleaving pair G entirely: no Disjoint " +
				"hypothesis separates the queues' outputs",
			WantCodes: []string{"SV020"},
			Apply: func(th *ag.Theorem) error {
				if _, err := pairByName(th, "G"); err != nil {
					return err
				}
				var kept []ag.Pair
				for _, p := range th.Pairs {
					if p.Name != "G" {
						kept = append(kept, p)
					}
				}
				th.Pairs = kept
				return nil
			},
		},
		{
			Name: "vet-dead-action",
			Kind: KindAction,
			Description: "QM1's Deq guard becomes len(q1) > 0 /\\ ~(len(q1) > 0): " +
				"a syntactically unsatisfiable action",
			WantCodes: []string{"SV050"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				guard := form.Gt(form.Len(form.Var("q1")), form.IntC(0))
				p.Sys.Actions[1].Def = form.And(guard, form.Not(guard))
				return nil
			},
		},
	}
	return append(muts, semVetMutations(cfg)...)
}

// RunVet applies each ill-formed mutant to its own copy of the Figure 9
// theorem and runs the static analyzer over it. The unmutated theorem must
// analyze with zero errors first — killing mutants with an analyzer that
// rejects the baseline proves nothing.
func RunVet(cfg queue.Config, muts []VetMutation) ([]VetResult, error) {
	if base := cfg.Fig9Theorem().Vet(); base.HasErrors() {
		return nil, fmt.Errorf("faultinject baseline has vet errors; mutation results would be meaningless:\n%s", base)
	}
	results := make([]VetResult, 0, len(muts))
	for _, mu := range muts {
		th := cfg.Fig9Theorem()
		if err := mu.Apply(th); err != nil {
			return nil, fmt.Errorf("vet mutant %s: apply: %w", mu.Name, err)
		}
		res := th.Vet()
		vr := VetResult{Mutation: mu.Name}
		found := make(map[string]bool)
		for _, d := range res.Diagnostics {
			vr.Found = append(vr.Found, d.Code)
			found[d.Code] = true
		}
		for _, want := range mu.WantCodes {
			if !found[want] {
				vr.Missing = append(vr.Missing, want)
			}
		}
		vr.Detected = len(vr.Missing) == 0 && len(res.Filter(vet.Warn)) > 0
		results = append(results, vr)
	}
	return results, nil
}
