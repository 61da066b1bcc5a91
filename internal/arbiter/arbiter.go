// Package arbiter applies the paper's assumption/guarantee method to a
// second domain: a mutual-exclusion arbiter granting a shared resource to
// two clients over a request/grant wire pair per client.
//
// The arbiter owns the grant wires g1, g2 and guarantees mutual exclusion
// and eventual service — assuming each client follows the protocol (raise
// r_i only while ungranted, lower r_i only while granted, eventually
// release). Each client owns its request wire r_i and guarantees the
// protocol — assuming the arbiter grants only requested clients and never
// revokes early. The Composition Theorem of Abadi & Lamport, "Open Systems
// in TLA" (§5) assembles these circular specifications into an
// unconditional complete-system result, exactly as it assembles the two
// queues of Appendix A.
package arbiter

import (
	"fmt"

	"opentla/internal/ag"
	"opentla/internal/form"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// Wire names: r1, r2 are client requests; g1, g2 are arbiter grants.
func rvar(i int) string { return fmt.Sprintf("r%d", i) }
func gvar(i int) string { return fmt.Sprintf("g%d", i) }

// Domains returns the variable domains: all four wires are bits.
func Domains() map[string][]value.Value {
	return map[string][]value.Value{
		"r1": value.Bits(), "r2": value.Bits(),
		"g1": value.Bits(), "g2": value.Bits(),
	}
}

func is(v string, b int64) form.Expr  { return form.Eq(form.Var(v), form.IntC(b)) }
func set(v string, b int64) form.Expr { return form.Eq(form.PrimedVar(v), form.IntC(b)) }

// grantAction returns Grant_i: grant a requesting, ungranted client while
// the other client is not granted. The request wires are inputs and stay
// unchanged (interleaving).
func grantAction(i, j int) form.Expr {
	return form.And(
		is(rvar(i), 1), is(gvar(i), 0), is(gvar(j), 0),
		set(gvar(i), 1),
		form.Unchanged(gvar(j), rvar(i), rvar(j)),
	)
}

// revokeAction returns Revoke_i: withdraw the grant after the client has
// dropped its request.
func revokeAction(i, j int) form.Expr {
	return form.And(
		is(rvar(i), 0), is(gvar(i), 1),
		set(gvar(i), 0),
		form.Unchanged(gvar(j), rvar(i), rvar(j)),
	)
}

// Arbiter returns the arbiter's guarantee: a canonical component owning
// g1, g2 with strongly fair grants (strong fairness is needed: with two
// contending clients, a grant action is only intermittently enabled, so
// weak fairness would allow starvation).
func Arbiter() *spec.Component {
	g1 := grantAction(1, 2)
	g2 := grantAction(2, 1)
	r1 := revokeAction(1, 2)
	r2 := revokeAction(2, 1)
	return &spec.Component{
		Name:    "arbiter",
		Inputs:  []string{"r1", "r2"},
		Outputs: []string{"g1", "g2"},
		Init:    form.And(is("g1", 0), is("g2", 0)),
		Actions: []spec.Action{
			{Name: "Grant1", Def: g1},
			{Name: "Grant2", Def: g2},
			{Name: "Revoke1", Def: r1},
			{Name: "Revoke2", Def: r2},
		},
		Fairness: []spec.Fairness{
			{Kind: form.Strong, Action: g1},
			{Kind: form.Strong, Action: g2},
			{Kind: form.Weak, Action: form.Or(r1, r2)},
		},
	}
}

// Client returns client i's guarantee: it owns r_i, raises a request only
// while ungranted, lowers it only while granted, and is weakly fair about
// releasing the resource (it does not hold it forever). Raising is not
// fair: a client is free never to request.
//
// The specification mentions only the client's own interface ⟨r_i, g_i⟩ —
// like the component queues of §A.5, it says nothing about the other
// client's wires, so the *conjunction* of the two clients' specifications
// admits simultaneous changes of r1 and r2. The interleaving assumption G
// is what rules those out (see Theorem), exactly as for the queues.
func Client(i int) *spec.Component {
	raise := form.And(
		is(rvar(i), 0), is(gvar(i), 0),
		set(rvar(i), 1),
		form.Unchanged(gvar(i)),
	)
	release := form.And(
		is(rvar(i), 1), is(gvar(i), 1),
		set(rvar(i), 0),
		form.Unchanged(gvar(i)),
	)
	return &spec.Component{
		Name:    fmt.Sprintf("client%d", i),
		Inputs:  []string{gvar(i)},
		Outputs: []string{rvar(i)},
		Init:    is(rvar(i), 0),
		Actions: []spec.Action{
			{Name: "Raise", Def: raise},
			{Name: "Release", Def: release},
		},
		Fairness: []spec.Fairness{
			{Kind: form.Weak, Action: release},
		},
	}
}

// ClientsEnv returns the arbiter's environment assumption: both clients'
// protocol obligations as a single safety component owning r1, r2 (no
// fairness — assumptions are safety properties, §3). As one component its
// next-state relation is interleaved: each action freezes the other
// client's request wire, so the assumption forbids simultaneous raises —
// which is why deriving it from the two separate client guarantees
// requires G (hypothesis 1 of the theorem).
func ClientsEnv() *spec.Component {
	interleave := func(i int, a spec.Action) spec.Action {
		return spec.Action{
			Name: fmt.Sprintf("%s%d", a.Name, i),
			Def:  form.And(a.Def, form.Unchanged(rvar(3-i))),
		}
	}
	c1 := Client(1)
	c2 := Client(2)
	var actions []spec.Action
	for _, a := range c1.Actions {
		actions = append(actions, interleave(1, a))
	}
	for _, a := range c2.Actions {
		actions = append(actions, interleave(2, a))
	}
	return &spec.Component{
		Name:    "clients-assumption",
		Inputs:  []string{"g1", "g2"},
		Outputs: []string{"r1", "r2"},
		Init:    form.And(is("r1", 0), is("r2", 0)),
		Actions: actions,
	}
}

// ArbiterEnv returns a client's environment assumption: the arbiter's
// safety behavior (grants only requested clients, revokes only dropped
// ones, one at a time), owning g1, g2.
func ArbiterEnv() *spec.Component {
	a := Arbiter()
	return a.SafetyOnly()
}

// Mutex is the mutual-exclusion predicate ¬(g1 = 1 ∧ g2 = 1).
func Mutex() form.Expr {
	return form.Not(form.And(is("g1", 1), is("g2", 1)))
}

// CompleteConclusion returns the conclusion guarantee M: the whole
// protocol as one interleaved component owning all four wires, with the
// service fairness conditions. Each action freezes every wire it does not
// set (the analogue of QM^dbl's interleaved representation), so a step
// changing two components' outputs at once violates M — without G the
// composition cannot establish it (see TestCompositionWithoutGFails).
func CompleteConclusion() *spec.Component {
	all := []string{"r1", "r2", "g1", "g2"}
	frozenExcept := func(sets ...string) form.Expr {
		skip := make(map[string]bool, len(sets))
		for _, s := range sets {
			skip[s] = true
		}
		var keep []string
		for _, v := range all {
			if !skip[v] {
				keep = append(keep, v)
			}
		}
		return form.Unchanged(keep...)
	}
	interleaved := func(a spec.Action, writes string) spec.Action {
		return spec.Action{
			Name: a.Name,
			Def:  form.And(a.Def, frozenExcept(writes)),
		}
	}
	arb := Arbiter()
	c1 := Client(1)
	c2 := Client(2)
	actions := []spec.Action{
		interleaved(arb.Actions[0], "g1"), // Grant1
		interleaved(arb.Actions[1], "g2"), // Grant2
		interleaved(arb.Actions[2], "g1"), // Revoke1
		interleaved(arb.Actions[3], "g2"), // Revoke2
		interleaved(c1.Actions[0], "r1"),  // Raise (client 1)
		interleaved(c1.Actions[1], "r1"),  // Release (client 1)
		interleaved(c2.Actions[0], "r2"),  // Raise (client 2)
		interleaved(c2.Actions[1], "r2"),  // Release (client 2)
	}
	var fairness []spec.Fairness
	for _, src := range []*spec.Component{arb, c1, c2} {
		for _, fc := range src.Fairness {
			fairness = append(fairness, spec.Fairness{
				Kind:   fc.Kind,
				Action: fc.Action,
				Sub:    form.VarTuple(all...),
			})
		}
	}
	return &spec.Component{
		Name:     "mutex-system",
		Outputs:  all,
		Init:     form.And(is("r1", 0), is("r2", 0), is("g1", 0), is("g2", 0)),
		Actions:  actions,
		Fairness: fairness,
	}
}

// OutputTuples returns the per-component output tuples for the
// interleaving assumption G.
func OutputTuples() [][]string {
	return [][]string{{"g1", "g2"}, {"r1"}, {"r2"}}
}

// GConstraints returns G as step constraints.
func GConstraints() []ts.StepConstraint {
	var out []ts.StepConstraint
	for i, sq := range form.DisjointSteps(OutputTuples()...) {
		out = append(out, ts.StepConstraint{Name: fmt.Sprintf("G%d", i), Action: sq})
	}
	return out
}

// Theorem returns the Composition Theorem instance: the arbiter (assuming
// the clients) and the two clients (assuming the arbiter) compose into the
// unconditional complete mutual-exclusion system:
//
//	G ∧ (Clients ⊳ Arbiter) ∧ (ArbiterSafety ⊳ Client1) ∧ (ArbiterSafety ⊳ Client2)
//	  ⇒ (TRUE ⊳ MutexSystem).
func Theorem() *ag.Theorem {
	return &ag.Theorem{
		Name: "arbiter: circular A/G composition of arbiter and clients",
		Pairs: []ag.Pair{
			{Name: "G", Constraints: GConstraints()},
			{Name: "arbiter", Env: ClientsEnv(), Sys: Arbiter()},
			{Name: "client1", Env: ArbiterEnv(), Sys: Client(1)},
			{Name: "client2", Env: ArbiterEnv(), Sys: Client(2)},
		},
		Concl: ag.Conclusion{
			Sys: CompleteConclusion(),
		},
		Domains: Domains(),
	}
}

// System returns the closed system (arbiter + both clients, interleaved)
// for direct model checking.
func System() *ts.System {
	return &ts.System{
		Name:        "arbiter-closed",
		Components:  []*spec.Component{Arbiter(), Client(1), Client(2)},
		Constraints: GConstraints(),
		Domains:     Domains(),
	}
}
