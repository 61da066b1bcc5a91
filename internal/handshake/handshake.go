// Package handshake implements the two-phase handshake protocol of §A.1 of
// Abadi & Lamport, "Open Systems in TLA": a channel c is the variable
// triple ⟨c.sig, c.ack, c.val⟩; c.snd denotes the pair ⟨c.sig, c.val⟩. The
// channel is ready to send when c.sig = c.ack; a value v is sent by setting
// c.val to v and complementing c.sig; receipt is acknowledged by
// complementing c.ack (Figure 2).
package handshake

import (
	"opentla/internal/form"
	"opentla/internal/state"
	"opentla/internal/value"
)

// Channel names the three wires of a handshake channel. The wires are the
// flexible variables "<name>.sig", "<name>.ack", and "<name>.val".
type Channel struct{ Name string }

// Chan returns the channel with the given name.
func Chan(name string) Channel { return Channel{Name: name} }

// Sig returns the signal wire's variable name.
func (c Channel) Sig() string { return c.Name + ".sig" }

// Ack returns the acknowledgement wire's variable name.
func (c Channel) Ack() string { return c.Name + ".ack" }

// Val returns the value wire's variable name.
func (c Channel) Val() string { return c.Name + ".val" }

// Vars returns all three wire names ⟨sig, ack, val⟩ — the paper's "c".
func (c Channel) Vars() []string { return []string{c.Sig(), c.Ack(), c.Val()} }

// SndVars returns the sender-owned wires ⟨sig, val⟩ — the paper's "c.snd".
func (c Channel) SndVars() []string { return []string{c.Sig(), c.Val()} }

// Tuple returns the tuple expression ⟨c.sig, c.ack, c.val⟩.
func (c Channel) Tuple() form.Expr { return form.VarTuple(c.Vars()...) }

// Init returns CInit(c) ≜ c.sig = c.ack = 0 (§A.2).
func (c Channel) Init() form.Expr {
	return form.And(
		form.Eq(form.Var(c.Sig()), form.IntC(0)),
		form.Eq(form.Var(c.Ack()), form.IntC(0)),
	)
}

// Ready returns the predicate c.sig = c.ack: the channel is ready for
// sending.
func (c Channel) Ready() form.Expr {
	return form.Eq(form.Var(c.Sig()), form.Var(c.Ack()))
}

// Pending returns the predicate c.sig ≠ c.ack: a value has been sent but
// not acknowledged.
func (c Channel) Pending() form.Expr {
	return form.Ne(form.Var(c.Sig()), form.Var(c.Ack()))
}

// flip returns the expression 1 − w for a bit wire w.
func flip(wire string) form.Expr { return form.Sub(form.IntC(1), form.Var(wire)) }

// Send returns the action Send(v, c) ≜ c.sig = c.ack ∧ c.snd' = ⟨v, 1−c.sig⟩
// (§A.2): the sender puts v on the value wire and complements the signal.
// The acknowledgement wire is not constrained (it belongs to the receiver).
func Send(v form.Expr, c Channel) form.Expr {
	return form.And(
		c.Ready(),
		form.Eq(form.PrimedVar(c.Val()), v),
		form.Eq(form.PrimedVar(c.Sig()), flip(c.Sig())),
	)
}

// SendAny returns ∃v ∈ dom : Send(v, c), the environment's arbitrary send
// (the paper's Put uses this with v ∈ ℕ; here the domain is finite).
func SendAny(c Channel, dom []value.Value) form.Expr {
	const bound = "$sendVal"
	return form.Exists(bound, dom, Send(form.Var(bound), c))
}

// AckAction returns Ack(c) ≜ c.sig ≠ c.ack ∧ c.ack' = 1−c.ack ∧
// c.snd' = c.snd (§A.2): the receiver acknowledges the pending value.
func AckAction(c Channel) form.Expr {
	return form.And(
		c.Pending(),
		form.Eq(form.PrimedVar(c.Ack()), flip(c.Ack())),
		form.Unchanged(c.SndVars()...),
	)
}

// Rename returns the variable-renaming map sending this channel's wires to
// another channel's wires, for use with spec.Component.Rename — the paper's
// substitution F[z/o] (§A.4).
func (c Channel) Rename(to Channel) map[string]string {
	return map[string]string{
		c.Sig(): to.Sig(),
		c.Ack(): to.Ack(),
		c.Val(): to.Val(),
	}
}

// Domains returns the wire domains for the channel: bits for sig/ack and
// the given value domain for val.
func (c Channel) Domains(vals []value.Value) map[string][]value.Value {
	return map[string][]value.Value{
		c.Sig(): value.Bits(),
		c.Ack(): value.Bits(),
		c.Val(): vals,
	}
}

// Trace reproduces the protocol run of Figure 2: starting from the initial
// state (sig = ack = 0, val = initVal), each value in vals is sent and then
// acknowledged. The resulting behavior's rows for ⟨ack, sig, val⟩ match the
// figure's table.
func (c Channel) Trace(initVal value.Value, vals []value.Value) (state.Behavior, error) {
	cur := state.New(map[string]value.Value{
		c.Sig(): value.Int(0),
		c.Ack(): value.Int(0),
		c.Val(): initVal,
	})
	behavior := state.Behavior{cur}
	for _, v := range vals {
		// Send: set val, complement sig.
		sig, _ := cur.MustGet(c.Sig()).AsInt()
		next := cur.WithAll(map[string]value.Value{
			c.Val(): v,
			c.Sig(): value.Int(1 - sig),
		})
		if ok, err := form.EvalBool(Send(form.Const(v), c), state.Step{From: cur, To: next}, nil); err != nil || !ok {
			return nil, traceErr("Send", cur, next, err)
		}
		behavior = append(behavior, next)
		cur = next
		// Ack: complement ack.
		ack, _ := cur.MustGet(c.Ack()).AsInt()
		next = cur.With(c.Ack(), value.Int(1-ack))
		if ok, err := form.EvalBool(AckAction(c), state.Step{From: cur, To: next}, nil); err != nil || !ok {
			return nil, traceErr("Ack", cur, next, err)
		}
		behavior = append(behavior, next)
		cur = next
	}
	return behavior, nil
}

func traceErr(op string, from, to *state.State, err error) error {
	if err != nil {
		return err
	}
	return &ProtocolError{Op: op, From: from.String(), To: to.String()}
}

// ProtocolError reports a step that violates the handshake protocol.
type ProtocolError struct {
	Op       string
	From, To string
}

func (e *ProtocolError) Error() string {
	return "handshake: " + e.Op + " violates the protocol: " + e.From + " -> " + e.To
}
