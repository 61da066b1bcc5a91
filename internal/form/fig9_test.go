package form_test

import (
	"testing"

	"opentla/internal/form"
	"opentla/internal/queue"
)

// TestFig9MappedTargetIndexed pins the fast path of hypothesis 2b: the
// conclusion's WF(Enq ∨ Deq), checked through the refinement mapping q̄,
// expands into an Enq̄ and a Deq̄ branch whose first residual conjunct is the
// mapped equality q̄' = R, and both must be answered from an inverse-image
// index rather than by enumerating every concrete primed assignment.
func TestFig9MappedTargetIndexed(t *testing.T) {
	for _, k := range []int{2, 4} {
		c := queue.Config{N: 1, Vals: k}
		th := c.Fig9Theorem()
		layout := c.DoubleSystem(true).Vars()
		ctx := form.NewCtx(th.Domains)
		f, ok := th.Concl.Sys.FairnessFormula().Subst(th.Concl.Mapping).(form.FairF)
		if !ok {
			t.Fatalf("K=%d: the conclusion's fairness is not a single WF/SF", k)
		}
		got := ctx.IndexedBranches(form.Angle(f.A, f.Sub), layout)
		if len(got) != 2 || !got[0] || !got[1] {
			t.Errorf("K=%d: Enq̄/Deq̄ branches indexed %v, want [true true]", k, got)
		}
	}
}
