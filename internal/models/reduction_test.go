package models

import (
	"fmt"
	"strings"
	"testing"

	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/obs"
	"opentla/internal/reduce"
	"opentla/internal/ts"
	"opentla/internal/ts/tstest"
)

// reductionProbe is a safety property checked on both the full and the
// symmetry-reduced graph. Every probe is invariant under the model's
// declared group (a non-invariant probe is allowed to disagree, so a
// disagreement would not witness a reduction bug).
type reductionProbe struct {
	name string
	f    form.Formula
}

// buildProbes assembles the cross-check properties for a model:
//
//   - boxes: the conjunction of every component's □[N]_v — holds by
//     construction, and is group-invariant because symmetry validation
//     checks exactly that every action is.
//   - init-pin: □(v = v₀ for every variable v outside the value orbit),
//     pinning the state to its initial binding. Violated whenever any such
//     variable ever changes, so it exercises the counterexample path.
//     Variables of the value orbit are excluded (v = 0 is not invariant
//     under value permutation).
func buildProbes(m Model, full *ts.Graph) []reductionProbe {
	var boxes []form.Formula
	for _, c := range m.Components {
		boxes = append(boxes, c.Box())
	}
	orbit := make(map[string]bool)
	if m.Symmetry != nil {
		for _, v := range m.Symmetry.Vars {
			orbit[v] = true
		}
	}
	init := full.States[full.Inits[0]]
	var pins []form.Expr
	for _, v := range init.Vars() {
		if !orbit[v] {
			pins = append(pins, form.Eq(form.Var(v), form.Const(init.MustGet(v))))
		}
	}
	return []reductionProbe{
		{name: "boxes", f: form.AndF(boxes...)},
		{name: "init-pin", f: form.AlwaysPred(form.And(pins...))},
	}
}

// symConfig is the -reduce sym configuration of a model.
func symConfig(m Model) *reduce.Config {
	return &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: m.Symmetry}
}

func buildModel(t *testing.T, m Model, rd *reduce.Config, workers int) *ts.Graph {
	t.Helper()
	sys := m.System()
	sys.Reduce = rd
	sys.Workers = workers
	g, err := sys.Build()
	if err != nil {
		t.Fatalf("%s: build (reduce=%v): %v", m.Name, rd, err)
	}
	return g
}

// TestReducedVsFullRegistry is the soundness cross-check the reduction
// mutants of internal/faultinject must fail: for every bundled model, the
// -reduce sym graph decides the same safety verdicts as the full graph,
// produces a counterexample exactly when the full check does, and never
// has more states. Every reduced counterexample is a behavior of the full
// graph that violates the probe: each consecutive pair of its states is a
// step, not a pair of representatives. A model that declares no symmetry
// group (arbiter, circular) gets the full graph itself. Run with -race and
// -cpu 1,4.
func TestReducedVsFullRegistry(t *testing.T) {
	// Value symmetry collapses data-distinguishing states in these models,
	// so it must strictly shrink them; a non-shrinking "reduction" means the
	// canonicalizer silently stopped firing.
	strictSym := map[string]bool{"handshake": true, "queue": true, "doublequeue": true}

	for _, m := range All() {
		t.Run(m.Name, func(t *testing.T) {
			full := buildModel(t, m, nil, 0)
			red := buildModel(t, m, symConfig(m), 0)
			if m.Symmetry == nil && (red.Reduced() || len(red.States) != len(full.States)) {
				t.Errorf("no group declared, yet -reduce sym built a reduced graph: %d of %d states",
					len(red.States), len(full.States))
			}
			for _, p := range buildProbes(m, full) {
				t.Run("sym/"+p.name, func(t *testing.T) {
					if len(red.States) > len(full.States) {
						t.Errorf("reduced graph has MORE states than full: %d > %d",
							len(red.States), len(full.States))
					}
					if strictSym[m.Name] && len(red.States) >= len(full.States) {
						t.Errorf("value symmetry did not shrink the graph: %d >= %d states",
							len(red.States), len(full.States))
					}
					fr, err := check.Safety(full, p.f)
					if err != nil {
						t.Fatalf("full check: %v", err)
					}
					rr, err := check.Safety(red, p.f)
					if err != nil {
						t.Fatalf("reduced check: %v", err)
					}
					if fr.Holds != rr.Holds {
						t.Errorf("verdict mismatch: full holds=%v, reduced holds=%v (%s / %s)",
							fr.Holds, rr.Holds, fr.Violation, rr.Violation)
					}
					if !rr.Holds && len(rr.Trace) == 0 {
						t.Errorf("reduced check violated without a counterexample trace")
					}
					if !rr.Holds {
						if err := tstest.ViolatesSafety(full, rr.Trace, p.f); err != nil {
							t.Errorf("reduced counterexample is not a violating behavior: %v\n%s", err, rr.Trace)
						}
					}
					if !fr.Holds && len(fr.Trace) == 0 {
						t.Errorf("full check violated without a counterexample trace")
					}
					t.Logf("states full=%d reduced=%d holds=%v", len(full.States), len(red.States), rr.Holds)
				})
			}
		})
	}
}

// livenessProbes returns liveness targets for a model, each invariant under
// its declared group: every WF and SF condition of the components (which
// the system assumes, so they hold), WF and SF of each component action
// over the component's variables (which fail where nothing forces the
// action), and ◇□, □◇ and leads-to over the init pin of buildProbes.
func livenessProbes(m Model, full *ts.Graph) []reductionProbe {
	var out []reductionProbe
	for _, c := range m.Components {
		for i, f := range c.Fairness {
			sub := f.Sub
			if sub == nil {
				sub = c.SubTuple()
			}
			out = append(out, reductionProbe{fmt.Sprintf("%s/fairness%d", c.Name, i), form.FairF{Kind: f.Kind, A: f.Action, Sub: sub}})
		}
		for _, a := range c.Actions {
			out = append(out,
				reductionProbe{c.Name + "/WF(" + a.Name + ")", form.WF(c.SubTuple(), a.Def)},
				reductionProbe{c.Name + "/SF(" + a.Name + ")", form.SF(c.SubTuple(), a.Def)})
		}
	}
	pin := buildProbes(m, full)[1].f.(form.AlwaysF).F.(form.PredF).P
	return append(out,
		reductionProbe{"<>[]pin", form.Eventually(form.AlwaysPred(pin))},
		reductionProbe{"[]<>pin", form.Always(form.EventuallyPred(pin))},
		reductionProbe{"~pin ~> pin", form.LeadsTo(form.Not(pin), pin)})
}

// TestReducedVsFullLiveness is the liveness half of the reduced-vs-full
// cross-check: for every bundled model with a symmetry group and every
// liveness probe, the fair-cycle search on the reduced graph's
// representatives decides what the full graph decides, and every reduced
// counterexample, lifted, is a behavior of the full graph on which the
// system's fairness is TRUE and the probe FALSE under form's lasso
// semantics. Run with -race and -cpu 1,4.
func TestReducedVsFullLiveness(t *testing.T) {
	for _, m := range All() {
		if m.Symmetry == nil {
			continue
		}
		t.Run(m.Name, func(t *testing.T) {
			full := buildModel(t, m, nil, 0)
			red := buildModel(t, m, symConfig(m), 0)
			var fair []form.Formula
			for _, c := range m.Components {
				if len(c.Fairness) > 0 {
					fair = append(fair, c.FairnessFormula())
				}
			}
			violated := 0
			for _, p := range livenessProbes(m, full) {
				fr, err := check.Liveness(full, p.f, nil)
				if err != nil {
					t.Fatalf("%s: full check: %v", p.name, err)
				}
				rr, err := check.Liveness(red, p.f, nil)
				if err != nil {
					t.Fatalf("%s: reduced check: %v", p.name, err)
				}
				if fr.Holds != rr.Holds {
					t.Errorf("%s: full holds=%v, reduced holds=%v", p.name, fr.Holds, rr.Holds)
					continue
				}
				if rr.Holds {
					continue
				}
				violated++
				if err := tstest.ViolatesLiveness(full, rr.Counterexample, form.AndF(fair...), p.f); err != nil {
					t.Errorf("%s: reduced counterexample is not a fair violating behavior: %v\n%s", p.name, err, rr.Counterexample)
				}
			}
			if violated == 0 {
				t.Errorf("no probe is violated, so no counterexample was lifted")
			}
			t.Logf("states full=%d reduced=%d, %d probes violated", len(full.States), len(red.States), violated)
		})
	}
}

// reducedSignature renders a reduced graph's observable structure including
// per-edge real successor states, so two builds are identical iff their
// signatures match.
func reducedSignature(g *ts.Graph) string {
	var sb strings.Builder
	for id, s := range g.States {
		fmt.Fprintf(&sb, "%d:%s\n", id, s.Key())
	}
	fmt.Fprintf(&sb, "inits:%v reduced:%v\n", g.Inits, g.Reduced())
	for id := range g.States {
		fmt.Fprintf(&sb, "%d ->", id)
		g.ForEachSuccEdge(id, func(k, to int) bool {
			fmt.Fprintf(&sb, " %d(%s)", to, g.EdgeReal(k).Key())
			return true
		})
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestReducedBuildDeterministic extends the worker-count determinism
// guarantee to reduced builds: canonical numbering, adjacency, AND the
// per-edge real successors must be byte-identical at any worker count.
func TestReducedBuildDeterministic(t *testing.T) {
	for _, m := range All() {
		t.Run(m.Name+"/sym", func(t *testing.T) {
			want := reducedSignature(buildModel(t, m, symConfig(m), 1))
			for _, workers := range []int{2, 4, 8} {
				if got := reducedSignature(buildModel(t, m, symConfig(m), workers)); got != want {
					t.Errorf("reduced graph at workers=%d differs from sequential", workers)
				}
			}
		})
	}
}

// TestReducedBuildFlightRecorder pins the observability side of -reduce
// sym: a reduced build through an instrumented meter must land a
// "reduce" event in the flight-recorder ring, a reduction section in the
// run report, and the opentla_reduce_* counters in the metric snapshot.
// A model that declares no group records none of them.
// Run with -race and -cpu 1,4: the recorder seams are the only shared
// state between the build workers and the coordinator.
func TestReducedBuildFlightRecorder(t *testing.T) {
	for _, m := range All() {
		t.Run(m.Name, func(t *testing.T) {
			meter := engine.NoLimit()
			rec := obs.New(meter)
			rec.EnableTelemetry()

			sys := m.System()
			sys.Reduce = symConfig(m)
			sys.Workers = 4
			if _, err := sys.BuildWith(meter); err != nil {
				t.Fatalf("reduced build: %v", err)
			}

			var statsEvents int
			for _, e := range rec.Events() {
				if e.Kind == "reduce" && strings.Contains(e.Msg, "sym-collapsed") {
					statsEvents++
					if !strings.Contains(e.Msg, "expansions") {
						t.Errorf("reduce event %q missing the expansion tally", e.Msg)
					}
				}
			}
			rep := rec.Finish("test", obs.Config{Model: m.Name, Workers: 4}, engine.Holds, "")
			if m.Symmetry == nil {
				if statsEvents != 0 || rep.Reduction != nil {
					t.Errorf("no group declared, yet the build recorded a reduction: %d events, %+v", statsEvents, rep.Reduction)
				}
				return
			}
			if statsEvents == 0 {
				t.Fatalf("no reduce statistics event in the flight recorder ring: %+v", rec.Events())
			}
			if rep.Reduction == nil {
				t.Fatal("report has no reduction section")
			}
			if rep.Reduction.FullStates == 0 {
				t.Errorf("reduction section counted no expansions: %+v", rep.Reduction)
			}
			if rep.Reduction.RemovedPORStates != 0 || rep.Reduction.RemovedPORSuccs != 0 {
				t.Errorf("removed ample counters are nonzero: %+v", rep.Reduction)
			}

			byName := map[string]int64{}
			for _, p := range rep.Metrics {
				if p.Labels == "" {
					byName[p.Name] = p.Value
				}
			}
			if byName["opentla_reduce_full_states_total"] == 0 {
				t.Errorf("opentla_reduce_* counters absent from metrics snapshot: %v", byName)
			}
		})
	}
}
