// Package opentla is a Go reproduction of Martín Abadi and Leslie
// Lamport's "Open Systems in TLA" (PODC 1994): assumption/guarantee
// specifications E ⊳ M written in a TLA fragment, the Composition Theorem
// for conjunctions of such specifications, and an explicit-state model
// checker that discharges the theorem's hypotheses mechanically.
//
// The implementation lives under internal/:
//
//	value, state   — the TLA value universe, states, behaviors, lassos
//	form           — expressions, actions, temporal formulas, ⊳ + ⊥ C(·)
//	spec           — canonical-form component specifications (§2.2)
//	ts             — transition systems, state graphs, monitor products
//	check          — safety/liveness model checking, fair-cycle search
//	ag             — the Composition Theorem (§5) and its Corollary, Propositions
//	handshake      — the two-phase handshake channel substrate (§A.1)
//	queue          — the queue example, CDQ ⇒ CQ^dbl, Figure 9 (App. A)
//	circular       — the §1 introductory examples
//	trace          — Figure 2-style trace rendering
//
// The benchmarks in this directory regenerate every figure and result of
// the paper; see EXPERIMENTS.md for the index.
package opentla
