package serial

import (
	"testing"

	"opentla/internal/ag"
	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// TestSerialImplementsWideChannel: the closed serial system implements the
// high-level wide-channel specification on interface w (the §2.3 interface
// refinement, checked as a complete-system refinement).
func TestSerialImplementsWideChannel(t *testing.T) {
	g, err := System(false).Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("serial system: %d states, %d edges", g.NumStates(), g.NumEdges())
	res, err := check.Safety(g, WideSpec().SafetyFormula())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("serial system should implement the wide-channel spec:\n%s", res)
	}
}

// TestSerialValueCorrectness: the history of values chosen by the sender
// always equals the delivered history, the value in flight on w, and the
// value in transit through the serial layer:
//
//	chosen = delivered ∘ w-in-flight ∘ InTransit.
func TestSerialValueCorrectness(t *testing.T) {
	g, err := System(false).Build()
	if err != nil {
		t.Fatal(err)
	}
	wide := WideVals()
	histDom := value.Seqs(wide, 3)
	chosen := &ts.Monitor{
		Var:    "$chosen",
		Domain: histDom,
		Init: func(s *state.State) ([]value.Value, error) {
			return []value.Value{value.Empty}, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			before := st.From.MustGet("sbuf")
			after := st.To.MustGet("sbuf")
			if before.Len() != 0 || after.Len() != 2 {
				return []value.Value{cur}, nil
			}
			if cur.Len() >= 3 {
				return nil, nil // truncate exploration
			}
			hi, _ := after.At(0)
			lo, _ := after.At(1)
			hiI, _ := hi.AsInt()
			loI, _ := lo.AsInt()
			nxt, _ := cur.Append(value.Int(2*hiI + loI))
			return []value.Value{nxt}, nil
		},
	}
	delivered := &ts.Monitor{
		Var:    "$delivered",
		Domain: histDom,
		Init: func(s *state.State) ([]value.Value, error) {
			return []value.Value{value.Empty}, nil
		},
		Step: func(st state.Step, cur value.Value) ([]value.Value, error) {
			if st.From.MustGet(W.Ack()).Equal(st.To.MustGet(W.Ack())) {
				return []value.Value{cur}, nil
			}
			if cur.Len() >= 3 {
				return nil, nil
			}
			nxt, _ := cur.Append(st.From.MustGet(W.Val()))
			return []value.Value{nxt}, nil
		},
	}
	prod, err := ts.Product(g, []*ts.Monitor{chosen, delivered})
	if err != nil {
		t.Fatal(err)
	}
	wFlight := form.If(W.Pending(), form.TupleOf(form.Var(W.Val())), form.EmptySeq)
	inv := form.Eq(
		form.Var("$chosen"),
		form.Concat(form.Concat(form.Var("$delivered"), wFlight), InTransit()),
	)
	res, err := check.Invariant(prod, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("serial value-correctness invariant violated:\n%s", res)
	}
}

// TestSerialLiveness: with a fair consumer, a value in transit is
// eventually delivered (w.sig flips), and bits on l are eventually
// acknowledged.
func TestSerialLiveness(t *testing.T) {
	g, err := System(true).Build()
	if err != nil {
		t.Fatal(err)
	}
	inTransit := form.Gt(form.Len(InTransit()), form.IntC(0))
	res, err := check.Liveness(g, form.LeadsTo(inTransit, W.Pending()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("in-transit value should eventually be delivered:\n%s", res)
	}
	res, err = check.Liveness(g, form.LeadsTo(L.Pending(), L.Ready()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("serial bits should eventually be acknowledged:\n%s", res)
	}
}

// TestReceiverAGSpec: the receiver alone satisfies "serial discipline ⊳
// wide discipline" against the most general environment.
func TestReceiverAGSpec(t *testing.T) {
	sys := &ts.System{
		Name:       "receiver-alone",
		Components: []*spec.Component{Receiver()},
		Domains:    Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.WhilePlus(g, SerialEnv(), WideSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds() {
		t.Fatalf("SerialEnv -+> WideSpec should hold for the receiver:\n%s", res)
	}
}

// TestReceiverWireSafetyIsUnconditional documents a modeling observation
// the paper makes in §A.1: the *reason* a real queue (or here, a real
// assembler) needs its environment assumption is metastability — inputs
// changing at the wrong instant. In the interleaved formal model a step
// that reads and writes is atomic, so the receiver's *wire-level* safety
// holds even against a hostile environment; what the assumption buys at
// this level of abstraction is the value-correctness and liveness of the
// protocol, not wire safety. We assert the unconditional wire safety so a
// regression that weakens the receiver's guards is caught.
func TestReceiverWireSafetyIsUnconditional(t *testing.T) {
	sys := &ts.System{
		Name:       "receiver-alone",
		Components: []*spec.Component{Receiver()},
		Domains:    Domains(),
	}
	g, err := sys.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.Safety(g, WideSpec().SafetyFormula())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("receiver wire safety should hold even under a free environment:\n%s", res)
	}
}

// TestSerialMachineClosure: sender and receiver fairness are machine
// closed.
func TestSerialMachineClosure(t *testing.T) {
	for _, c := range []*spec.Component{Sender(), Receiver()} {
		res, err := ag.MachineClosure(c, Domains())
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !res.Closed {
			t.Fatalf("%s should be machine closed; stuck at %s", c.Name, res.StuckState)
		}
	}
}
