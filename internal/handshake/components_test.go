package handshake

import (
	"testing"

	"opentla/internal/spec"
	"opentla/internal/value"
)

// TestSenderReceiverComponents checks the canonical-form packaging of the
// protocol: each side validates and owns its half of the channel.
func TestSenderReceiverComponents(t *testing.T) {
	c := Chan("c")
	snd := Sender("sender", c, value.Ints(0, 1))
	rcv := Receiver("receiver", c)
	for _, comp := range []*spec.Component{snd, rcv} {
		if err := comp.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", comp.Name, err)
		}
	}
	if got := len(snd.Outputs); got != 2 || snd.Inputs[0] != "c.ack" {
		t.Errorf("sender partition: in=%v out=%v", snd.Inputs, snd.Outputs)
	}
	if len(rcv.Outputs) != 1 || rcv.Outputs[0] != "c.ack" {
		t.Errorf("receiver partition: in=%v out=%v", rcv.Inputs, rcv.Outputs)
	}
}
