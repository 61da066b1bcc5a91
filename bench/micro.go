package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"time"

	"opentla/internal/absint"
	"opentla/internal/cache"
	"opentla/internal/form"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/state"
	"opentla/internal/store"
	"opentla/internal/ts"
)

// maxFormSteps caps the edges the formula micro-benchmark evaluates each
// action definition on: interpreting every definition costs microseconds per
// step, and a seeded sample of this size keeps a repetition under a second.
const maxFormSteps = 20000

// micro times calls into each layer's public functions in-process, on the
// Fig. 9 guarantees-only system (the graph built for hypothesis 2a) and the
// Appendix A CDQ system, and checks each fast path against its reference:
// successor lists against the built graph's rows, compiled predicates
// against the interpreter, decoded snapshots against the encoded bytes, the
// absint bound against the explored states.
// Every timing is the median of cfg.microReps repetitions; rng orders the
// states and samples the edges.
func (h *harness) micro(rng *rand.Rand) (map[string]float64, error) {
	defer h.spans.begin("micro")()
	reps := h.cfg.microReps
	wrong := false // reported once: one broken fast path fails every step
	fail := func(format string, args ...any) {
		if !wrong {
			fmt.Fprintf(os.Stderr, "bench: WRONG ANSWER in the micro pass: "+format+"\n", args...)
		}
		wrong = true
	}
	cfg := queue.Config{N: 1, Vals: h.cfg.k}
	th := cfg.Fig9Theorem()

	// The guarantees-only system, as ag.Theorem builds it for H2a: every
	// pair's guarantee without fairness, plus the pairs' step constraints.
	var comps []*spec.Component
	var cons []ts.StepConstraint
	for _, p := range th.Pairs {
		if p.Sys != nil {
			comps = append(comps, p.Sys.SafetyOnly())
		}
		cons = append(cons, p.Constraints...)
	}
	sys := &ts.System{Name: "guarantees-only", Components: comps, Constraints: cons, Domains: th.Domains, Workers: 1}
	end := h.spans.begin("micro:build guarantees-only")
	g, err := sys.Build()
	end()
	if err != nil {
		return nil, fmt.Errorf("micro pass: %w", err)
	}
	order := rng.Perm(g.NumStates())
	pl := map[string]float64{}

	// ts: successor generation on every state, checked against the graph.
	var succs []*state.State
	for _, i := range order {
		s := g.States[i]
		out, err := sys.Successors(s)
		if err != nil {
			return nil, fmt.Errorf("micro pass: successors: %w", err)
		}
		if len(out) != g.Degree(i) {
			fail("state %d has %d successors, its graph row %d", i, len(out), g.Degree(i))
		}
		succs = append(succs, out...)
	}
	sec := h.timeReps("micro:ts.Successors", reps, func() {
		for _, i := range order {
			_, _ = sys.Successors(g.States[i]) // checked above
		}
	})
	pl["ts.succgen_ns_per_state"] = sec * 1e9 / float64(len(order))
	pl["ts.succgen_succs_per_state"] = float64(len(succs)) / float64(len(order))

	// store: interning every generated successor into a fresh store.
	var added int
	sec = h.timeReps("micro:store.Intern", reps, func() {
		st := store.New()
		added = 0
		for _, s := range succs {
			if _, isNew := st.Intern(s); isNew {
				added++
			}
		}
	})
	if added != g.NumStates() {
		fail("interning the successors added %d states, the graph has %d", added, g.NumStates())
	}
	pl["store.intern_ns"] = sec * 1e9 / float64(len(succs))
	pl["store.new_frac"] = float64(added) / float64(len(succs))

	// reduce: symmetry canonicalization of the same successors.
	cz := (&reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: cfg.DoubleSymmetry()}).Canonicalizer()
	sec = h.timeReps("micro:reduce.Canon", reps, func() {
		for _, s := range succs {
			cz.Canon(s)
		}
	})
	pl["reduce.canon_ns_per_state"] = sec * 1e9 / float64(len(succs))

	// form: each component action's compiled predicate against the
	// interpreter, on a seeded sample of the graph's edges.
	var steps []state.Step
	g.ForEachEdge(func(from, to int) bool {
		steps = append(steps, state.Step{From: g.States[from], To: g.States[to]})
		return true
	})
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	steps = steps[:min(len(steps), maxFormSteps)]
	var defs []form.Expr
	var preds []form.CompiledPred
	layout := sys.Vars()
	for _, c := range comps {
		for _, a := range c.Actions {
			defs = append(defs, a.Def)
			preds = append(preds, form.CompilePred(a.Def, layout))
		}
	}
	for _, st := range steps {
		for i, def := range defs {
			want, err1 := form.EvalBool(def, st, nil)
			got, err2 := preds[i](st)
			if err1 != nil || err2 != nil || got != want {
				fail("compiled and interpreted %s disagree on %s", def, st)
			}
		}
	}
	evals := float64(len(steps) * len(defs))
	sec = h.timeReps("micro:form.CompilePred", reps, func() {
		for _, st := range steps {
			for _, p := range preds {
				_, _ = p(st) // checked above
			}
		}
	})
	pl["form.compiled_ns_per_step"] = sec * 1e9 / evals
	sec = h.timeReps("micro:form.EvalBool", reps, func() {
		for _, st := range steps {
			for _, def := range defs {
				_, _ = form.EvalBool(def, st, nil) // checked above
			}
		}
	})
	pl["form.interp_ns_per_step"] = sec * 1e9 / evals

	// cache: the snapshot codec on the guarantees-only graph.
	snap := g.Snapshot()
	sum := sha256.Sum256([]byte(sys.Name))
	var enc []byte
	sec = h.timeReps("micro:cache.Encode", reps, func() {
		enc, err = cache.Encode(snap, sum)
	})
	if err != nil {
		return nil, fmt.Errorf("micro pass: encode: %w", err)
	}
	pl["cache.encode_mbps"] = float64(len(enc)) / 1e6 / sec
	var dec *ts.Snapshot
	sec = h.timeReps("micro:cache.Decode", reps, func() {
		dec, err = cache.Decode(enc, sum)
	})
	if err != nil {
		return nil, fmt.Errorf("micro pass: decode: %w", err)
	}
	if again, err := cache.Encode(dec, sum); err != nil || !bytes.Equal(again, enc) {
		fail("a decoded snapshot does not re-encode to the same bytes")
	}
	pl["cache.decode_mbps"] = float64(len(enc)) / 1e6 / sec

	// absint: the state-space bound of the same system, which must dominate
	// the states the build explored.
	var aexprs []form.Expr
	for _, c := range cons {
		aexprs = append(aexprs, c.Action)
	}
	var bound *absint.Bound
	pl["absint.analyze_s"] = h.timeReps("micro:absint.Analyze", reps, func() {
		bound = absint.Analyze(comps, aexprs, absint.Options{Declared: th.Domains}).Bound()
	})
	if !bound.Finite || bound.States < uint64(g.NumStates()) {
		fail("absint bound %d is below the %d explored states", bound.States, g.NumStates())
	}

	// check: Tarjan SCCs over the Appendix A CDQ graph.
	cdq := cfg.DoubleSystem(true)
	cdq.Workers = 1
	end = h.spans.begin("micro:build CDQ")
	gd, err := cdq.Build()
	end()
	if err != nil {
		return nil, fmt.Errorf("micro pass: %w", err)
	}
	var sccs int
	sec = h.timeReps("micro:ts.Graph.SCCs", reps, func() {
		sccs = len(gd.SCCs(nil, nil))
	})
	if sccs == 0 {
		fail("the CDQ graph has no SCCs")
	}
	pl["check.scc_ns_per_edge"] = sec * 1e9 / float64(gd.NumEdges())

	h.attempted++
	if wrong {
		h.failed++
	}
	return pl, nil
}

// timeReps runs f reps times, each under a span, and returns the median
// duration in seconds.
func (h *harness) timeReps(name string, reps int, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		end := h.spans.begin(name)
		t := time.Now()
		f()
		ds[i] = time.Since(t).Seconds()
		end()
	}
	return median(ds)
}
