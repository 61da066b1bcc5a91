package handshake

import (
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/value"
)

// Sender returns the sending side of the handshake as a canonical-form
// component: it owns c.snd = ⟨c.sig, c.val⟩, reads c.ack, and repeatedly
// sends values drawn from vals (the paper's Put, §A.2, over a finite
// domain). Weak fairness guarantees a ready channel is eventually used.
func Sender(name string, c Channel, vals []value.Value) *spec.Component {
	send := SendAny(c, vals)
	return &spec.Component{
		Name:    name,
		Inputs:  []string{c.Ack()},
		Outputs: c.SndVars(),
		Init:    c.Init(),
		Actions: []spec.Action{{
			Name: "Send",
			Def:  send,
		}},
		Fairness: []spec.Fairness{{Kind: form.Weak, Action: send}},
	}
}

// Receiver returns the acknowledging side: it owns c.ack, reads c.snd, and
// acknowledges every pending value (the paper's Get, §A.2).
func Receiver(name string, c Channel) *spec.Component {
	ack := AckAction(c)
	return &spec.Component{
		Name:    name,
		Inputs:  c.SndVars(),
		Outputs: []string{c.Ack()},
		Init:    form.Eq(form.Var(c.Ack()), form.IntC(0)),
		Actions: []spec.Action{{
			Name: "Ack",
			Def:  ack,
		}},
		Fairness: []spec.Fairness{{Kind: form.Weak, Action: ack}},
	}
}
