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
	"opentla/internal/state"
	"opentla/internal/ts"
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
//     checks exactly that the group permutes the component multiset.
//   - init-pin: □(v = v₀ for every symmetry-safe variable v), pinning the
//     state to its initial binding. Violated whenever any such variable
//     ever changes, so it exercises the counterexample path. Variables of
//     the value orbit are excluded (v = 0 is not invariant under value
//     permutation); block variables stay because the models' initial
//     bindings assign equal values across block positions.
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
// mutants of internal/faultinject must fail: for every bundled model with a
// declared symmetry group, the reduced graph decides the same safety
// verdicts as the full graph, produces a counterexample exactly when the
// full check does, and never has more states. Run with -race and -cpu 1,4.
func TestReducedVsFullRegistry(t *testing.T) {
	// Value symmetry collapses data-distinguishing states in these models,
	// so it must strictly shrink them; a non-shrinking "reduction" means the
	// canonicalizer silently stopped firing.
	strictSym := map[string]bool{"handshake": true, "queue": true, "doublequeue": true}

	for _, m := range All() {
		if m.Symmetry == nil {
			continue
		}
		t.Run(m.Name, func(t *testing.T) {
			full := buildModel(t, m, nil, 0)
			red := buildModel(t, m, symConfig(m), 0)
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
					if !fr.Holds && len(fr.Trace) == 0 {
						t.Errorf("full check violated without a counterexample trace")
					}
					t.Logf("states full=%d reduced=%d holds=%v", len(full.States), len(red.States), rr.Holds)
				})
			}
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
		g.ForEachSuccStep(id, func(to int, real *state.State) bool {
			fmt.Fprintf(&sb, " %d(%s)", to, real.Key())
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
		if m.Symmetry == nil {
			continue
		}
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
// Run with -race and -cpu 1,4: the recorder seams are the only shared
// state between the build workers and the coordinator.
func TestReducedBuildFlightRecorder(t *testing.T) {
	for _, m := range All() {
		if m.Symmetry == nil {
			continue // sym needs a declared group
		}
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
			if statsEvents == 0 {
				t.Fatalf("no reduce statistics event in the flight recorder ring: %+v", rec.Events())
			}

			rep := rec.Finish("test", obs.Config{Model: m.Name, Workers: 4}, engine.Holds, "")
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
