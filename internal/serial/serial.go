// Package serial implements an interface refinement in the sense of §2.3
// of Abadi & Lamport, "Open Systems in TLA": a wide handshake channel w
// (carrying values 0..3) implemented by a serial bit channel l that
// transmits each value as two bits (high bit first), with a sender,
// a receiver/assembler, and a consumer.
//
// The low-level complete system implements the high-level specification
// "w behaves like a handshake channel carrying 0..3" — the relation
// between the low-level tuple (l, internal buffers) and the high-level
// interface w is exactly the conditional-implementation formula G of
// §2.3's second bullet, realised here as a refinement claim checked by the
// model checker. The receiver also satisfies the assumption/guarantee
// specification "serial discipline ⊳ wide discipline".
package serial

import (
	"opentla/internal/form"
	"opentla/internal/handshake"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// L is the serial bit channel; W is the wide output channel.
var (
	L = handshake.Chan("l")
	W = handshake.Chan("w")
)

// WideVals returns the wide value domain 0..3.
func WideVals() []value.Value { return value.Ints(0, 3) }

// Domains returns the variable domains of the serial system.
func Domains() map[string][]value.Value {
	d := L.Domains(value.Bits())
	for k, v := range W.Domains(WideVals()) {
		d[k] = v
	}
	d["sbuf"] = value.Seqs(value.Bits(), 2) // sender's unsent bits
	d["racc"] = value.Seqs(value.Bits(), 1) // receiver's assembled bits
	return d
}

// bitsOf decomposes v ∈ 0..3 into ⟨hi, lo⟩.
func bitsOf(v int64) value.Value {
	return value.Tuple(value.Int(v/2), value.Int(v%2))
}

// Sender returns the serial sender: it owns l.snd and an internal bit
// buffer sbuf. When idle it may choose any value, loading its two bits;
// it then transmits them in order over l. Transmission is weakly fair;
// choosing is not (the sender may stay idle).
func Sender() *spec.Component {
	sbuf := form.Var("sbuf")
	idle := form.Eq(form.Len(sbuf), form.IntC(0))

	var chooseDisjuncts []form.Expr
	for v := int64(0); v <= 3; v++ {
		chooseDisjuncts = append(chooseDisjuncts, form.And(
			idle,
			form.Eq(form.PrimedVar("sbuf"), form.Const(bitsOf(v))),
			form.Unchanged(L.SndVars()...),
		))
	}
	choose := form.Or(chooseDisjuncts...)

	sendBit := form.And(
		form.Gt(form.Len(sbuf), form.IntC(0)),
		handshake.Send(form.Head(sbuf), L),
		form.Eq(form.PrimedVar("sbuf"), form.Tail(sbuf)),
	)

	return &spec.Component{
		Name:      "serial-sender",
		Inputs:    []string{L.Ack()},
		Outputs:   []string{L.Sig(), L.Val()},
		Internals: []string{"sbuf"},
		Init:      form.And(L.Init(), form.Eq(sbuf, form.Const(value.Empty))),
		Actions: []spec.Action{
			{Name: "Choose", Def: choose},
			{Name: "SendBit", Def: sendBit},
		},
		Fairness: []spec.Fairness{
			{Kind: form.Weak, Action: sendBit},
		},
	}
}

// Receiver returns the assembler: it acknowledges bits on l, buffers the
// high bit in racc, and on receiving the low bit delivers the assembled
// value on the wide channel w (acknowledging l and sending on w in one
// step — both wires are its outputs).
func Receiver() *spec.Component {
	racc := form.Var("racc")
	empty := form.Eq(form.Len(racc), form.IntC(0))

	recvHi := form.And(
		empty,
		handshake.AckAction(L),
		form.Eq(form.PrimedVar("racc"), form.TupleOf(form.Var(L.Val()))),
		form.Unchanged(W.Vars()...),
	)
	assembled := form.Add(
		form.Mul(form.Head(racc), form.IntC(2)),
		form.Var(L.Val()),
	)
	deliver := form.And(
		form.Gt(form.Len(racc), form.IntC(0)),
		handshake.AckAction(L),
		handshake.Send(assembled, W),
		form.Eq(form.PrimedVar("racc"), form.Const(value.Empty)),
	)

	return &spec.Component{
		Name:      "serial-receiver",
		Inputs:    []string{L.Sig(), L.Val(), W.Ack()},
		Outputs:   []string{L.Ack(), W.Sig(), W.Val()},
		Internals: []string{"racc"},
		Init:      form.And(W.Init(), form.Eq(racc, form.Const(value.Empty))),
		Actions: []spec.Action{
			{Name: "RecvHi", Def: recvHi},
			{Name: "Deliver", Def: deliver},
		},
		Fairness: []spec.Fairness{
			{Kind: form.Weak, Action: form.Or(recvHi, deliver)},
		},
	}
}

// Consumer returns the wide channel's consumer, acknowledging deliveries.
// fair adds weak fairness (needed for end-to-end liveness claims).
func Consumer(fair bool) *spec.Component {
	get := form.And(handshake.AckAction(W), form.Unchanged(L.Vars()...))
	c := &spec.Component{
		Name:    "consumer",
		Inputs:  []string{W.Sig(), W.Val(), L.Sig(), L.Ack(), L.Val()},
		Outputs: []string{W.Ack()},
		Actions: []spec.Action{{
			Name: "Get",
			Def:  get,
		}},
	}
	if fair {
		c.Fairness = []spec.Fairness{{Kind: form.Weak, Action: get}}
	}
	return c
}

// WideSpec returns the high-level specification of the interface: w
// behaves as a handshake channel carrying values 0..3 (safety only — the
// sender is free to stay idle). Its box is subscripted by w.snd, so it
// constrains only the wide interface.
func WideSpec() *spec.Component {
	return &spec.Component{
		Name:    "wide-channel-spec",
		Inputs:  []string{W.Ack()},
		Outputs: []string{W.Sig(), W.Val()},
		Init:    W.Init(),
		Actions: []spec.Action{{
			Name: "WSend",
			Def:  handshake.SendAny(W, WideVals()),
		}},
	}
}

// SerialEnv returns the receiver's environment assumption: bits arrive on
// l by the handshake discipline and deliveries on w are acknowledged.
func SerialEnv() *spec.Component {
	put := form.And(handshake.SendAny(L, value.Bits()), form.Unchanged(W.Vars()...))
	get := form.And(handshake.AckAction(W), form.Unchanged(L.Vars()...))
	return &spec.Component{
		Name:    "serial-env",
		Inputs:  []string{L.Ack(), W.Sig(), W.Val()},
		Outputs: []string{L.Sig(), L.Val(), W.Ack()},
		Init:    L.Init(),
		Actions: []spec.Action{
			{Name: "PutBit", Def: put},
			{Name: "Get", Def: get},
		},
	}
}

// System returns the closed serial system: sender, receiver, consumer.
func System(fairConsumer bool) *ts.System {
	return &ts.System{
		Name: "serial-closed",
		Components: []*spec.Component{
			Sender(), Receiver(), Consumer(fairConsumer),
		},
		Domains: Domains(),
	}
}

// InTransit returns the state function reconstructing the sequence of
// values currently inside the serial layer (oldest first), from the
// sender's unsent bits sbuf, the bit on the wire (when l is pending), and
// the receiver's buffered high bit racc. It is the refinement relation
// between the low-level tuple and the high-level pipeline — §2.3's
// interface-refinement G.
//
// Writing (s, w, r) for the bit counts in sbuf / on the wire / in racc,
// the reachable patterns and their decodings are:
//
//	(0,0,0) → ⟨⟩
//	(2,0,0) → ⟨sbuf⟩                     value loaded, nothing sent
//	(1,1,0) → ⟨2·l.val + sbuf₀⟩          hi on the wire, lo unsent
//	(0,1,1) → ⟨2·racc₀ + l.val⟩          hi received, lo on the wire
//	(1,0,1) → ⟨2·racc₀ + sbuf₀⟩          hi received, lo unsent
//	(2,1,1) → ⟨2·racc₀ + l.val⟩ ∘ ⟨sbuf⟩  two values in flight
func InTransit() form.Expr {
	sbuf := form.Var("sbuf")
	racc := form.Var("racc")
	haveR := form.Gt(form.Len(racc), form.IntC(0))

	// The half-assembled value at the receiver side, if any: its low bit
	// is on the wire when l is pending, otherwise still first in sbuf.
	loBit := form.If(L.Pending(), form.Var(L.Val()), form.Head(sbuf))
	receiverSeq := form.If(haveR,
		form.TupleOf(form.Add(form.Mul(form.Head(racc), form.IntC(2)), loBit)),
		form.EmptySeq)

	// The value still on the sender side, if any.
	pairVal := form.TupleOf(form.Add(
		form.Mul(form.Head(sbuf), form.IntC(2)),
		form.Head(form.Tail(sbuf)),
	))
	hiOnWire := form.TupleOf(form.Add(
		form.Mul(form.Var(L.Val()), form.IntC(2)),
		form.Head(sbuf),
	))
	senderSeq := form.If(form.Eq(form.Len(sbuf), form.IntC(2)),
		pairVal,
		form.If(form.And(form.Eq(form.Len(sbuf), form.IntC(1)), form.Not(haveR), L.Pending()),
			hiOnWire,
			form.EmptySeq))

	return form.Concat(receiverSeq, senderSeq)
}
