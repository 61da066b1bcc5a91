package obs_test

import (
	"testing"

	"opentla/internal/obs"
	"opentla/internal/queue"
)

// maskCounts returns the two ENABLED mask counters of a recorder's
// metrics, failing t unless both series are there.
func maskCounts(t *testing.T, rec *obs.Recorder) (abstract, substituted int64) {
	t.Helper()
	found := 0
	for _, p := range rec.Points() {
		switch p.Name {
		case "opentla_enabled_masks_abstract_total":
			abstract, found = p.Value, found+1
		case "opentla_enabled_masks_substituted_total":
			substituted, found = p.Value, found+1
		}
	}
	if found != 2 {
		t.Fatalf("%d of the 2 ENABLED mask series in the metrics", found)
	}
	return abstract, substituted
}

// TestEnabledMaskCounters: every theorem the CLIs check under a refinement
// mapping — Fig. 9, unreduced and under symmetry, and the Corollary — has
// one mapped fairness target, 2b's WF(Enq ∨ Deq) under q̄, and reads it on
// the images, and both counters are in the metrics. (check's
// TestEnabledMaskSides counts the truncated mapping's substituted mask,
// which a theorem check never reaches: its H2b safety fails first.)
func TestEnabledMaskCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *obs.Recorder
	}{
		{"fig9/off", func(t *testing.T) *obs.Recorder { return fig9Run(t, "off", nil) }},
		{"fig9/sym", func(t *testing.T) *obs.Recorder { return fig9Run(t, "sym", nil) }},
		{"corollary", func(t *testing.T) *obs.Recorder {
			return checkRun(t, "Corollary", queue.Config{N: 1, Vals: 2}.CorollaryTheorem())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if a, s := maskCounts(t, tc.run(t)); a != 1 || s != 0 {
				t.Errorf("%d abstract, %d substituted masks; want 1, 0", a, s)
			}
		})
	}
}
