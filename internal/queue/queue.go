// Package queue implements the N-element queue example of Appendix A of
// Abadi & Lamport, "Open Systems in TLA": the queue guarantee QM and
// environment assumption QE over two-phase handshake channels, the complete
// systems CQ (queue + environment) and CDQ (two queues in series), the
// refinement CDQ ⇒ CQ^dbl via the standard refinement mapping, and the
// Composition Theorem instance of Figure 9 showing that two open queues
// compose into a larger open queue.
package queue

import (
	"fmt"

	"opentla/internal/ag"
	"opentla/internal/form"
	"opentla/internal/handshake"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// Config parameterises a queue instance.
type Config struct {
	// N is the queue capacity (the paper's N).
	N int
	// Vals is the size K of the value domain {0, …, K−1} standing in for
	// the paper's ℕ (a finite-domain substitution; see DESIGN.md).
	Vals int
}

// ValueDomain returns the value domain {0, …, Vals−1}.
func (c Config) ValueDomain() []value.Value { return value.Ints(0, int64(c.Vals-1)) }

// In and Out are the standard channel names of Figure 3; Mid is the
// internal channel z of Figure 7.
var (
	In  = handshake.Chan("i")
	Out = handshake.Chan("o")
	Mid = handshake.Chan("z")
)

// QM returns the queue guarantee (§A.3): a canonical component with output
// variables ⟨in.ack, out.snd⟩, input variables ⟨in.snd, out.ack⟩, internal
// variable qVar, initial predicate CInit(out) ∧ q = ⟨⟩, actions Enq and
// Deq, and the weak-fairness condition ICL = WF(Enq ∨ Deq).
func QM(name string, n int, in, out handshake.Channel, qVar string, vals []value.Value) *spec.Component {
	q := form.Var(qVar)
	enq := form.And(
		form.Lt(form.Len(q), form.IntC(int64(n))),
		handshake.AckAction(in),
		form.Eq(form.PrimedVar(qVar), form.AppendTo(q, form.Var(in.Val()))),
		form.Unchanged(out.Vars()...),
	)
	deq := form.And(
		form.Gt(form.Len(q), form.IntC(0)),
		handshake.Send(form.Head(q), out),
		form.Eq(form.PrimedVar(qVar), form.Tail(q)),
		form.Unchanged(in.Vars()...),
	)
	// ICL's subscript is the tuple ⟨in, out, q⟩ of all relevant variables
	// (Fig. 6).
	allVars := append(append([]string{}, in.Vars()...), out.Vars()...)
	allVars = append(allVars, qVar)
	return &spec.Component{
		Name:      name,
		Inputs:    []string{in.Sig(), in.Val(), out.Ack()},
		Outputs:   []string{in.Ack(), out.Sig(), out.Val()},
		Internals: []string{qVar},
		Init:      form.And(out.Init(), form.Eq(q, form.Const(value.Empty))),
		Actions: []spec.Action{
			{Name: "Enq", Def: enq},
			{Name: "Deq", Def: deq},
		},
		Fairness: []spec.Fairness{{
			Kind:   form.Weak,
			Action: form.Or(enq, deq),
			Sub:    form.VarTuple(allVars...),
		}},
	}
}

// QE returns the environment assumption (§A.3): output variables
// ⟨in.snd, out.ack⟩, input variables ⟨in.ack, out.snd⟩, initial predicate
// CInit(in), and actions Put (send an arbitrary value on in) and Get
// (acknowledge on out). It is a safety property: no fairness.
func QE(name string, in, out handshake.Channel, vals []value.Value) *spec.Component {
	put := form.And(handshake.SendAny(in, vals), form.Unchanged(out.Vars()...))
	get := form.And(handshake.AckAction(out), form.Unchanged(in.Vars()...))
	return &spec.Component{
		Name:    name,
		Inputs:  []string{in.Ack(), out.Sig(), out.Val()},
		Outputs: []string{in.Sig(), in.Val(), out.Ack()},
		Init:    in.Init(),
		Actions: []spec.Action{
			{Name: "Put", Def: put},
			{Name: "Get", Def: get},
		},
	}
}

// Domains returns the variable domains of the single-queue system CQ.
func (c Config) Domains() map[string][]value.Value {
	vals := c.ValueDomain()
	d := In.Domains(vals)
	for k, v := range Out.Domains(vals) {
		d[k] = v
	}
	d["q"] = value.Seqs(vals, c.N)
	return d
}

// DoubleDomains returns the variable domains of the double-queue system
// CDQ, including the abstract queue variable "q" of capacity 2N+1 used by
// the refinement mapping checks.
func (c Config) DoubleDomains() map[string][]value.Value {
	vals := c.ValueDomain()
	d := In.Domains(vals)
	for k, v := range Out.Domains(vals) {
		d[k] = v
	}
	for k, v := range Mid.Domains(vals) {
		d[k] = v
	}
	d["q1"] = value.Seqs(vals, c.N)
	d["q2"] = value.Seqs(vals, c.N)
	d["q"] = value.Seqs(vals, 2*c.N+1)
	return d
}

// SingleSystem returns the complete system CQ of Figure 6: the queue QM
// composed with its environment QE.
func (c Config) SingleSystem() *ts.System {
	vals := c.ValueDomain()
	return &ts.System{
		Name: fmt.Sprintf("CQ[N=%d,K=%d]", c.N, c.Vals),
		Components: []*spec.Component{
			QE("QE", In, Out, vals),
			QM("QM", c.N, In, Out, "q", vals),
		},
		Domains: c.Domains(),
	}
}

// FirstQueue returns QM¹ = QM[z/o, q1/q]: the first queue of Figure 7,
// reading from i and writing to z.
func (c Config) FirstQueue() *spec.Component {
	return QM("QM1", c.N, In, Mid, "q1", c.ValueDomain())
}

// SecondQueue returns QM² = QM[z/i, q2/q]: the second queue of Figure 7,
// reading from z and writing to o.
func (c Config) SecondQueue() *spec.Component {
	return QM("QM2", c.N, Mid, Out, "q2", c.ValueDomain())
}

// FirstEnv returns QE¹ = QE[z/o]: the first queue's environment assumption
// (values arrive on i, acknowledgements on z).
func (c Config) FirstEnv() *spec.Component {
	return QE("QE1", In, Mid, c.ValueDomain())
}

// SecondEnv returns QE² = QE[z/i]: the second queue's environment
// assumption.
func (c Config) SecondEnv() *spec.Component {
	return QE("QE2", Mid, Out, c.ValueDomain())
}

// OutputTuples returns the output-variable tuples of the double queue's
// three components — the arguments of the interleaving assumption G (§A.5):
//
//	G ≜ Disjoint(⟨i.snd, o.ack⟩, ⟨z.snd, i.ack⟩, ⟨o.snd, z.ack⟩).
func OutputTuples() [][]string {
	return [][]string{
		{In.Sig(), In.Val(), Out.Ack()},
		{Mid.Sig(), Mid.Val(), In.Ack()},
		{Out.Sig(), Out.Val(), Mid.Ack()},
	}
}

// GConstraints returns G as per-step constraints for system building.
func GConstraints() []ts.StepConstraint {
	var out []ts.StepConstraint
	for i, sq := range form.DisjointSteps(OutputTuples()...) {
		out = append(out, ts.StepConstraint{Name: fmt.Sprintf("G%d", i), Action: sq})
	}
	return out
}

// GFormula returns G as a temporal formula.
func GFormula() form.Formula { return form.Disjoint(OutputTuples()...) }

// DoubleSystem returns the complete double-queue system of Figures 7 and 8:
// environment + two queues in series. withG adds the interleaving
// constraints of G; Figure 8's CDQ is the interleaved system, i.e.
// withG = true.
func (c Config) DoubleSystem(withG bool) *ts.System {
	vals := c.ValueDomain()
	sys := &ts.System{
		Name: fmt.Sprintf("CDQ[N=%d,K=%d,G=%v]", c.N, c.Vals, withG),
		Components: []*spec.Component{
			QE("QE", In, Out, vals),
			c.FirstQueue(),
			c.SecondQueue(),
		},
		Domains: c.DoubleDomains(),
	}
	if withG {
		sys.Constraints = GConstraints()
	}
	return sys
}

// DoubleMapping returns the refinement mapping for the abstract queue
// variable q of the (2N+1)-element queue (§A.4): the abstract contents are
// the second queue's, then the value in flight on z (if any), then the
// first queue's:
//
//	q̄ ≜ q2 ∘ (IF z.sig ≠ z.ack THEN ⟨z.val⟩ ELSE ⟨⟩) ∘ q1.
func DoubleMapping() map[string]form.Expr {
	inFlight := form.If(Mid.Pending(), form.TupleOf(form.Var(Mid.Val())), form.EmptySeq)
	return map[string]form.Expr{
		"q": form.Concat(form.Concat(form.Var("q2"), inFlight), form.Var("q1")),
	}
}

// DoubleQueueSpec returns the abstract (2N+1)-element queue guarantee
// QM^dbl = QM[(2N+1)/N].
func (c Config) DoubleQueueSpec() *spec.Component {
	return QM("QMdbl", 2*c.N+1, In, Out, "q", c.ValueDomain())
}

// Fig9Theorem returns the Composition Theorem instance proved in Figure 9:
//
//	G ∧ (QE¹ ⊳ QM¹) ∧ (QE² ⊳ QM²) ⇒ (QE^dbl ⊳ QM^dbl)
//
// with G supplied as the pair (TRUE ⊳ G), per §5's conditional-
// implementation device.
func (c Config) Fig9Theorem() *ag.Theorem {
	vals := c.ValueDomain()
	return &ag.Theorem{
		Name: fmt.Sprintf("Fig9[N=%d,K=%d]: two open queues implement a %d-queue", c.N, c.Vals, 2*c.N+1),
		Pairs: []ag.Pair{
			{Name: "G", Constraints: GConstraints()},
			{Name: "Q1", Env: c.FirstEnv(), Sys: c.FirstQueue()},
			{Name: "Q2", Env: c.SecondEnv(), Sys: c.SecondQueue()},
		},
		Concl: ag.Conclusion{
			Env:     QE("QEdbl", In, Out, vals),
			Sys:     c.DoubleQueueSpec(),
			Mapping: DoubleMapping(),
			// v = ⟨i, o, z⟩ as in Fig. 9, step 2.
			PlusSub: form.VarTuple(append(append(append([]string{},
				In.Vars()...), Out.Vars()...), Mid.Vars()...)...),
		},
		Domains: c.DoubleDomains(),
	}
}
