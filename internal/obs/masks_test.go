package obs_test

import (
	"testing"

	"opentla/internal/obs"
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

// TestEnabledMaskCounters: Fig. 9's one mapped fairness target, H2b's
// WF(Enq ∨ Deq) under q̄, is read on the images, and both counters are in
// the metrics. (check's TestEnabledMaskSides counts the truncated
// mapping's substituted mask, which a theorem check never reaches: its
// H2b safety fails first.)
func TestEnabledMaskCounters(t *testing.T) {
	if a, s := maskCounts(t, fig9Run(t, "off", nil)); a != 1 || s != 0 {
		t.Errorf("Fig. 9: %d abstract, %d substituted masks; want 1, 0", a, s)
	}
}
