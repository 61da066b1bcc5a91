package queue

import (
	"fmt"

	"opentla/internal/ag"
	"opentla/internal/form"
	"opentla/internal/handshake"
	"opentla/internal/spec"
	"opentla/internal/value"
)

// FusedDouble returns the two queues in series of Figure 7 packaged as a
// single component with the middle channel z and both buffers internal — a
// lower-level *implementation* M′ of the (2N+1)-element queue, used to
// exercise the Corollary of §5: (E ⊳ M′) ⇒ (E ⊳ M).
//
// Each action freezes the rest of the component's state, so the fused
// component is internally interleaved (as the complete system CDQ of
// Figure 8 is).
func (c Config) FusedDouble() *spec.Component {
	n := int64(c.N)
	q1, q2 := form.Var("q1"), form.Var("q2")

	frozen := func(except ...string) form.Expr {
		all := []string{
			In.Sig(), In.Val(), Out.Ack(), // inputs (interleaving: e' = e)
			In.Ack(), Out.Sig(), Out.Val(),
			Mid.Sig(), Mid.Ack(), Mid.Val(),
			"q1", "q2",
		}
		skip := make(map[string]bool, len(except))
		for _, e := range except {
			skip[e] = true
		}
		var keep []string
		for _, v := range all {
			if !skip[v] {
				keep = append(keep, v)
			}
		}
		return form.Unchanged(keep...)
	}

	enq1 := form.And(
		form.Lt(form.Len(q1), form.IntC(n)),
		handshake.AckAction(In),
		form.Eq(form.PrimedVar("q1"), form.AppendTo(q1, form.Var(In.Val()))),
		frozen(In.Ack(), "q1"),
	)
	move1 := form.And(
		form.Gt(form.Len(q1), form.IntC(0)),
		handshake.Send(form.Head(q1), Mid),
		form.Eq(form.PrimedVar("q1"), form.Tail(q1)),
		frozen(Mid.Sig(), Mid.Val(), "q1"),
	)
	move2 := form.And(
		form.Lt(form.Len(q2), form.IntC(n)),
		handshake.AckAction(Mid),
		form.Eq(form.PrimedVar("q2"), form.AppendTo(q2, form.Var(Mid.Val()))),
		frozen(Mid.Ack(), "q2"),
	)
	deq2 := form.And(
		form.Gt(form.Len(q2), form.IntC(0)),
		handshake.Send(form.Head(q2), Out),
		form.Eq(form.PrimedVar("q2"), form.Tail(q2)),
		frozen(Out.Sig(), Out.Val(), "q2"),
	)

	allVars := []string{
		In.Sig(), In.Ack(), In.Val(),
		Out.Sig(), Out.Ack(), Out.Val(),
		Mid.Sig(), Mid.Ack(), Mid.Val(),
		"q1", "q2",
	}
	return &spec.Component{
		Name:      fmt.Sprintf("DQ[N=%d]", c.N),
		Inputs:    []string{In.Sig(), In.Val(), Out.Ack()},
		Outputs:   []string{In.Ack(), Out.Sig(), Out.Val()},
		Internals: []string{Mid.Sig(), Mid.Ack(), Mid.Val(), "q1", "q2"},
		Init: form.And(
			Out.Init(), Mid.Init(),
			form.Eq(q1, form.Const(value.Empty)),
			form.Eq(q2, form.Const(value.Empty)),
		),
		Actions: []spec.Action{
			{Name: "Enq1", Def: enq1},
			{Name: "Move1", Def: move1},
			{Name: "Move2", Def: move2},
			{Name: "Deq2", Def: deq2},
		},
		Fairness: []spec.Fairness{
			{Kind: form.Weak, Action: form.Or(enq1, move1), Sub: form.VarTuple(allVars...)},
			{Kind: form.Weak, Action: form.Or(move2, deq2), Sub: form.VarTuple(allVars...)},
		},
	}
}

// CorollaryTheorem returns the Corollary instance (experiment E14): with
// the fixed environment assumption E = QE^dbl, the fused double queue
// refines the (2N+1)-element queue, (E ⊳ DQ) ⇒ (E ⊳ QM^dbl). The Corollary
// is the Composition Theorem with one pair whose assumption is the
// conclusion's: hypothesis (1) is C(E) ∧ C(DQ) ⇒ E, which holds since E is
// a safety property, and the Corollary's (a) and (b) are 2a and 2b.
func (c Config) CorollaryTheorem() *ag.Theorem {
	env := QE("QEdbl", In, Out, c.ValueDomain())
	return &ag.Theorem{
		Name:    fmt.Sprintf("fused-double-queue[N=%d,K=%d] refines %d-queue (Corollary)", c.N, c.Vals, 2*c.N+1),
		Pairs:   []ag.Pair{{Name: "DQ", Env: env, Sys: c.FusedDouble()}},
		Concl:   ag.Conclusion{Env: env, Sys: c.DoubleQueueSpec(), Mapping: DoubleMapping()},
		Domains: c.DoubleDomains(),
	}
}
