package ts

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"opentla/internal/engine"
	"opentla/internal/obs"
)

// levelRecord is one frontier level barrier as the recorder logs it.
type levelRecord struct {
	op          string
	level       int
	width       int
	workers     int
	totalStates int
}

var levelMsg = regexp.MustCompile(`^(.*): level (\d+), width (\d+), (\d+) workers, (\d+) states total$`)

// recordedLevels parses the recorder's "level" flight-recorder entries.
func recordedLevels(t *testing.T, rec *obs.Recorder) []levelRecord {
	t.Helper()
	var out []levelRecord
	for _, e := range rec.Events() {
		if e.Kind != "level" {
			continue
		}
		f := levelMsg.FindStringSubmatch(e.Msg)
		if f == nil {
			t.Fatalf("malformed level event %q", e.Msg)
		}
		n := func(i int) int { v, _ := strconv.Atoi(f[i]); return v }
		out = append(out, levelRecord{f[1], n(2), n(3), n(4), n(5)})
	}
	return out
}

// TestExploreReportsLevels verifies that graph exploration records one
// Level per BFS level barrier with consistent counters: levels
// strictly increasing from 0, widths summing to the number of states, and
// the final cumulative total matching the graph.
func TestExploreReportsLevels(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := engine.NoLimit()
		rec := obs.New(m)
		sys := pairSystem(4)
		sys.Workers = workers
		g, err := sys.BuildWith(m)
		if err != nil {
			t.Fatal(err)
		}
		levels := recordedLevels(t, rec)
		if len(levels) == 0 {
			t.Fatalf("workers=%d: no level records", workers)
		}
		widthSum, prevTotal := 0, 0
		for i, l := range levels {
			if l.level != i {
				t.Errorf("workers=%d: level %d reported as %d", workers, i, l.level)
			}
			if !strings.Contains(l.op, "ts.Build") {
				t.Errorf("workers=%d: op = %q, want a ts.Build label", workers, l.op)
			}
			if l.workers < 1 {
				t.Errorf("workers=%d: reported worker count %d", workers, l.workers)
			}
			widthSum += l.width
			// totalStates counts everything discovered so far, including the
			// next level found while draining this one: at least the drained
			// states, never shrinking.
			if l.totalStates < widthSum || l.totalStates < prevTotal {
				t.Errorf("workers=%d: level %d total %d, want >= drained %d and >= previous %d",
					workers, i, l.totalStates, widthSum, prevTotal)
			}
			prevTotal = l.totalStates
		}
		if widthSum != g.NumStates() {
			t.Errorf("workers=%d: level widths sum to %d, graph has %d states",
				workers, widthSum, g.NumStates())
		}
		final := levels[len(levels)-1]
		if final.totalStates != g.NumStates() {
			t.Errorf("workers=%d: final total %d, want %d", workers, final.totalStates, g.NumStates())
		}
	}
}

// TestExploreNoObserverStillCounts pins the disabled path: no recorder, same
// graph, frontier peak still recorded by the meter.
func TestExploreNoObserverStillCounts(t *testing.T) {
	m := engine.NoLimit()
	g, err := pairSystem(4).BuildWith(m)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.States != g.NumStates() {
		t.Errorf("meter states %d, graph %d", st.States, g.NumStates())
	}
	if st.PeakFrontier <= 0 {
		t.Errorf("peak frontier %d, want > 0", st.PeakFrontier)
	}
}
