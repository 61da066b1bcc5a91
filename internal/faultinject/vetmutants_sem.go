package faultinject

import (
	"fmt"

	"opentla/internal/absint"
	"opentla/internal/ag"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/models"
	"opentla/internal/queue"
)

// KindSemantic marks mutations aimed at the abstract-interpretation pass
// (specvet v2, SV1xx): the fault is invisible to the declaration-driven
// checks and only the inferred facts — domains, write-sets, guard
// satisfiability — can catch it.
const KindSemantic Kind = "semantic"

// semVetMutations returns the semantic-pass mutant set, appended to
// VetCatalog. Each one keeps the declarations perfectly well-formed; what
// it breaks is the relationship between the declarations and what the
// actions actually do.
func semVetMutations(cfg queue.Config) []VetMutation {
	q1Pair := func(th *ag.Theorem) (*ag.Pair, error) { return pairByName(th, "Q1") }
	q2Pair := func(th *ag.Theorem) (*ag.Pair, error) { return pairByName(th, "Q2") }
	return []VetMutation{
		{
			Name: "sem-wrong-ownership",
			Kind: KindSemantic,
			Description: "QM1's Deq also acknowledges on z — a write into QM2's " +
				"output z.ack that refutes the declared Disjoint coverage of G",
			WantCodes: []string{"SV002", "SV111"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				p.Sys.Actions[1].Def = form.And(p.Sys.Actions[1].Def,
					form.Eq(form.PrimedVar(queue.Mid.Ack()), form.IntC(0)))
				return nil
			},
		},
		{
			Name: "sem-infinite-domain",
			Kind: KindSemantic,
			Description: "QM1 gains an unguarded Leak action incrementing i.ack " +
				"while the declared i.ack domain is dropped: the reachable value " +
				"set is no longer provably finite and no state-space bound exists",
			WantCodes: []string{"SV100"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				ack := queue.In.Ack()
				p.Sys.Actions = append(p.Sys.Actions, p.Sys.Actions[0])
				leak := &p.Sys.Actions[len(p.Sys.Actions)-1]
				leak.Name = "Leak"
				leak.Def = form.Eq(form.PrimedVar(ack), form.Add(form.Var(ack), form.IntC(1)))
				delete(th.Domains, ack)
				return nil
			},
		},
		{
			Name: "sem-hidden-interface",
			Kind: KindSemantic,
			Description: "QM2 declares QM1's internal queue variable q1 as an " +
				"input: a composition coupling through a variable the canonical " +
				"form hides under ∃x",
			WantCodes: []string{"SV120"},
			Apply: func(th *ag.Theorem) error {
				p, err := q2Pair(th)
				if err != nil {
					return err
				}
				p.Sys.Inputs = append(p.Sys.Inputs, "q1")
				return nil
			},
		},
		{
			Name: "sem-dangling-input",
			Kind: KindSemantic,
			Description: "QE1 hides its z.ack output as an internal variable: " +
				"QM1 still reads the wire, but its assumption no longer drives it",
			WantCodes: []string{"SV121"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				ack := queue.Mid.Ack()
				var kept []string
				for _, v := range p.Env.Outputs {
					if v != ack {
						kept = append(kept, v)
					}
				}
				if len(kept) == len(p.Env.Outputs) {
					return fmt.Errorf("QE1 does not output %s", ack)
				}
				p.Env.Outputs = kept
				p.Env.Internals = append(p.Env.Internals, ack)
				return nil
			},
		},
		{
			Name: "sem-never-enabled",
			Kind: KindSemantic,
			Description: "QM1's Deq additionally requires len(q1) > 5, satisfiable " +
				"in isolation but impossible under the capacity-N domain: the " +
				"action is semantically dead",
			WantCodes: []string{"SV130"},
			Apply: func(th *ag.Theorem) error {
				p, err := q1Pair(th)
				if err != nil {
					return err
				}
				p.Sys.Actions[1].Def = form.And(p.Sys.Actions[1].Def,
					form.Gt(form.Len(form.Var("q1")), form.IntC(5)))
				return nil
			},
		},
	}
}

// BoundMutation is one injected bound-soundness fault: it flips one
// absint.Sabotage seam so the analyzer's state-space bound under-counts.
// The detector is the registry cross-check — the bound must dominate the
// number of states exploration actually finds.
type BoundMutation struct {
	Name        string
	Description string
	Sabotage    absint.Sabotage
}

// BoundCatalog returns the bound-soundness mutants, exercised against the
// handshake model (small enough to explore exhaustively, and its sound
// bound of 8 is exact, so any under-count is visible).
func BoundCatalog() []BoundMutation {
	return []BoundMutation{
		{
			Name: "sem-bound-drop-var",
			Description: "the cardinality product silently skips the c.sig wire, " +
				"as if the variable had been forgotten by the analysis universe",
			Sabotage: absint.Sabotage{DropVar: "c.sig"},
		},
		{
			Name: "sem-bound-halve",
			Description: "every per-variable cardinality is halved before the " +
				"product, an off-by-rounding under-approximation",
			Sabotage: absint.Sabotage{HalveCards: true},
		},
	}
}

// RunBound checks every bound mutant: the sound bound must dominate the
// explored state count of the probe model (the baseline), and the
// sabotaged bound must drop below it (the detection). A surviving mutant
// means the bound-vs-explored cross-check could miss an unsound bound of
// the same shape.
func RunBound(muts []BoundMutation, b engine.Budget) ([]Result, error) {
	m, err := models.ByName("handshake")
	if err != nil {
		return nil, err
	}
	var cons []form.Expr
	for _, c := range m.Constraints {
		cons = append(cons, c.Action)
	}
	a := absint.Analyze(m.Components, cons, absint.Options{Declared: m.Domains})
	g, err := m.System().BuildWith(b.Meter())
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", m.Name, err)
	}
	explored := uint64(g.NumStates())
	sound := a.Bound()
	if !sound.Finite || sound.States < explored {
		return nil, fmt.Errorf("baseline is broken: sound bound %s does not dominate %d explored states; mutation results would be meaningless",
			sound, explored)
	}
	results := make([]Result, 0, len(muts))
	for _, mu := range muts {
		sab := a.BoundWith(mu.Sabotage)
		res := Result{
			Mutation: mu.Name,
			Detected: sab.Finite && sab.States < explored,
		}
		if res.Detected {
			res.FailedHypothesis = "BoundVsExplored"
			res.Detail = fmt.Sprintf("sound bound %s, sabotaged bound %s, explored %d states",
				sound, sab, explored)
		}
		results = append(results, res)
	}
	return results, nil
}
