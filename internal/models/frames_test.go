package models

import (
	"testing"

	"opentla/internal/check"
	"opentla/internal/form"
	"opentla/internal/ts"
)

// TestFramesCreditOnlyDisjointPairs is the graph oracle for vet's frame
// credit: wherever the frames of a model's actions (form.FrameSets of each
// component's [N]_v) cover the outputs of two components, with no help
// from the step constraints, Disjoint of those outputs holds on the
// model's graph. It also pins the pairs frames credit: the queue's (QE, QM)
// and the quickstart's client against its server, the two SV020 infos
// frames removed.
func TestFramesCreditOnlyDisjointPairs(t *testing.T) {
	credited := map[string]bool{}
	for _, m := range append(All(), Examples()...) {
		frames := make([][]map[string]bool, len(m.Components))
		for i, c := range m.Components {
			frames[i] = form.FrameSets(c.SquareExpr())
		}
		var g *ts.Graph
		for i, a := range m.Components {
			for _, b := range m.Components[i+1:] {
				if len(a.Outputs) == 0 || len(b.Outputs) == 0 || !form.DisjointCovers(frames, a.Outputs, b.Outputs) {
					continue
				}
				pair := m.Name + ":" + a.Name + "," + b.Name
				credited[pair] = true
				if g == nil {
					g = buildModel(t, m, nil, 1)
				}
				res, err := check.Safety(g, form.Disjoint(a.Outputs, b.Outputs))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Holds {
					t.Errorf("%s: frames credit Disjoint of the outputs, but the graph refutes it:\n%s", pair, res)
				}
			}
		}
	}
	t.Logf("credited: %v", credited)
	for _, pair := range []string{"queue:QE,QM", "quickstart:client-assumption,server"} {
		if !credited[pair] {
			t.Errorf("frames do not credit %s (credited: %v)", pair, credited)
		}
	}
}
