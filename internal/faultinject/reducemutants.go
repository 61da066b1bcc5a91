package faultinject

import (
	"fmt"

	"opentla/internal/check"
	"opentla/internal/engine"
	"opentla/internal/form"
	"opentla/internal/reduce"
	"opentla/internal/spec"
	"opentla/internal/ts"
	"opentla/internal/value"
)

// ReduceMutation is one injected reduction-soundness fault. Unlike the spec
// mutations of Catalog, which corrupt the Figure 9 theorem instance, a
// reduction mutant flips exactly one symmetry sabotage seam of
// internal/reduce (see reduce.Sabotage) and pairs it with a miniature
// system whose safety verdict that seam demonstrably flips: the probe formula decides
// differently on the sabotaged reduced graph than on the full graph. The
// reduced-vs-full cross-check is the detector; a surviving mutant means
// that cross-check could miss a reduction bug of the same shape.
type ReduceMutation struct {
	Name        string
	Description string
	// Sabotage is the single seam this mutant flips.
	Sabotage reduce.Sabotage
	// System builds a fresh instance of the miniature system tailored to
	// expose the seam.
	System func() *ts.System
	// Probe is the safety property whose verdict the sabotage flips. It is
	// invariant under Symmetry, so full, soundly-reduced, and sabotaged
	// graphs are all legitimately comparable on it.
	Probe form.Formula
	// Symmetry is the group of the (sound) reduction the seam corrupts.
	Symmetry *reduce.Symmetry
}

// config returns the symmetry reduction of the mutant, broken by sab when
// sab is non-nil.
func (mu *ReduceMutation) config(sab *reduce.Sabotage) *reduce.Config {
	return &reduce.Config{Options: reduce.Options{Sym: true}, Symmetry: mu.Symmetry, Sabotage: sab}
}

// RunReduce checks every reduction mutant: first that the soundly reduced
// graph agrees with the full graph on the probe (the baseline, without
// which detection would be meaningless), then that the sabotaged reduced
// graph disagrees. Detected means the cross-check caught the seam.
func RunReduce(muts []ReduceMutation, b engine.Budget) ([]Result, error) {
	results := make([]Result, 0, len(muts))
	for _, mu := range muts {
		verdict := func(rd *reduce.Config) (*check.SafetyResult, int, error) {
			sys := mu.System()
			sys.Reduce = rd
			g, err := sys.BuildWith(b.Meter())
			if err != nil {
				return nil, 0, fmt.Errorf("build (reduce=%v): %w", rd, err)
			}
			r, err := check.Safety(g, mu.Probe)
			if err != nil {
				return nil, 0, fmt.Errorf("check (reduce=%v): %w", rd, err)
			}
			return r, g.NumStates(), nil
		}
		full, nFull, err := verdict(nil)
		if err != nil {
			return nil, fmt.Errorf("mutant %s: full: %w", mu.Name, err)
		}
		sound, nSound, err := verdict(mu.config(nil))
		if err != nil {
			return nil, fmt.Errorf("mutant %s: sound: %w", mu.Name, err)
		}
		if sound.Holds != full.Holds {
			return nil, fmt.Errorf("mutant %s: baseline is broken: sound reduction holds=%v, full holds=%v; mutation results would be meaningless",
				mu.Name, sound.Holds, full.Holds)
		}
		sab := mu.Sabotage
		mutated, nMut, err := verdict(mu.config(&sab))
		if err != nil {
			return nil, fmt.Errorf("mutant %s: sabotaged: %w", mu.Name, err)
		}
		res := Result{
			Mutation: mu.Name,
			Detected: mutated.Holds != full.Holds,
		}
		if res.Detected {
			res.FailedHypothesis = "ReducedVsFull"
			res.Detail = fmt.Sprintf("full holds=%v (%d states), sound holds=%v (%d states), sabotaged [%s] holds=%v (%d states)",
				full.Holds, nFull, sound.Holds, nSound, sab.String(), mutated.Holds, nMut)
		}
		results = append(results, res)
	}
	return results, nil
}

// vals01 is the two-element data orbit the symmetry mutants permute.
func vals01() []value.Value { return value.Ints(0, 1) }

// tuplesUpTo enumerates all tuples over vals of length at most 2, the
// domain of the sequence variables in the symmetry mutants.
func tuplesUpTo2(vals []value.Value) []value.Value {
	dom := []value.Value{value.Tuple()}
	for _, a := range vals {
		dom = append(dom, value.Tuple(a))
	}
	for _, a := range vals {
		for _, b := range vals {
			dom = append(dom, value.Tuple(a, b))
		}
	}
	return dom
}

// ReduceCatalog returns one mutant per sabotage seam of reduce.Sabotage.
// Every mutant must be detected — see the package test, which asserts zero
// survivors.
func ReduceCatalog() []ReduceMutation {
	tupleC := func(xs ...int64) form.Expr {
		vs := make([]value.Value, len(xs))
		for i, x := range xs {
			vs[i] = value.Int(x)
		}
		return form.Const(value.Tuple(vs...))
	}
	return []ReduceMutation{
		{
			Name: "sym-collapse-values",
			Description: "canonicalization maps every orbit value to the first one, merging " +
				"inequivalent states: the appender's two-element sequences all collapse to " +
				"<<0,0>>, so a probe forbidding the mixed sequences holds on the sabotaged " +
				"graph while the full graph reaches <<0,1>>",
			Sabotage: reduce.Sabotage{CollapseValues: true},
			System: func() *ts.System {
				appender := &spec.Component{
					Name:    "appender",
					Outputs: []string{"t"},
					Init:    form.Eq(form.Var("t"), form.Const(value.Tuple())),
					Actions: []spec.Action{{
						Name: "Append",
						Def: form.And(
							form.Lt(form.Len(form.Var("t")), form.IntC(2)),
							form.Exists("$v", vals01(),
								form.Eq(form.PrimedVar("t"), form.AppendTo(form.Var("t"), form.Var("$v")))),
						),
					}},
				}
				return &ts.System{
					Name:       "reduce-mutant/sym-collapse",
					Components: []*spec.Component{appender},
					Domains:    map[string][]value.Value{"t": tuplesUpTo2(vals01())},
				}
			},
			Probe: form.AlwaysPred(form.And(
				form.Not(form.Eq(form.Var("t"), tupleC(0, 1))),
				form.Not(form.Eq(form.Var("t"), tupleC(1, 0))),
			)),
			Symmetry: &reduce.Symmetry{Values: vals01(), Vars: []string{"t"}},
		},
		{
			Name: "sym-skip-tuple-values",
			Description: "canonicalization relabels scalar variables but skips values inside " +
				"tuples, manufacturing states outside the input's orbit: the setter keeps " +
				"t = <<x>> in every real state, but the sabotaged canonical form of " +
				"(x=1, t=<<1>>) is the unreachable (x=0, t=<<1>>)",
			Sabotage: reduce.Sabotage{SkipTupleValues: true},
			System: func() *ts.System {
				setter := &spec.Component{
					Name:    "setter",
					Outputs: []string{"x", "t"},
					Init:    form.Eq(form.Var("t"), form.TupleOf(form.Var("x"))),
					Actions: []spec.Action{{
						Name: "Set",
						Def: form.Exists("$v", vals01(), form.And(
							form.Eq(form.PrimedVar("x"), form.Var("$v")),
							form.Eq(form.PrimedVar("t"), form.TupleOf(form.Var("$v"))),
						)),
					}},
				}
				return &ts.System{
					Name:       "reduce-mutant/sym-skip-tuple",
					Components: []*spec.Component{setter},
					Domains: map[string][]value.Value{
						"x": vals01(),
						"t": {value.Tuple(value.Int(0)), value.Tuple(value.Int(1))},
					},
				}
			},
			Probe:    form.AlwaysPred(form.Eq(form.Var("t"), form.TupleOf(form.Var("x")))),
			Symmetry: &reduce.Symmetry{Values: vals01(), Vars: []string{"t", "x"}},
		},
	}
}
