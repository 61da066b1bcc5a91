package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"opentla/internal/engine"
)

// StartProgress starts a goroutine printing one status line to w every
// interval — throughput, frontier depth/width, worker occupancy, and
// budget headroom — and returns the (idempotent) stop func. Nil recorder
// or non-positive interval yields a no-op. The ticker reads only atomic
// gauges and meter counters, so it never perturbs the exploration.
func (r *Recorder) StartProgress(w io.Writer, interval time.Duration) func() {
	if r == nil || interval <= 0 {
		return noop
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		lastStates := r.meter.Stats().States
		lastT := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				lastStates, lastT = r.progressLine(w, lastStates, lastT)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stop)
			wg.Wait()
		})
	}
}

// progressLine prints one status line and returns the new rate baseline.
func (r *Recorder) progressLine(w io.Writer, lastStates int, lastT time.Time) (int, time.Time) {
	st := r.meter.Stats()
	now := time.Now()
	rate := 0.0
	if dt := now.Sub(lastT).Seconds(); dt > 0 {
		rate = float64(st.States-lastStates) / dt
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "progress: %d states (%.0f/s), %d transitions, depth %d, width %d, workers %d",
		st.States, rate, st.Transitions, r.gaugeLevel.Load(), r.gaugeWidth.Load(), r.gaugeWorkers.Load())
	if op, _ := r.gaugeOp.Load().(string); op != "" {
		fmt.Fprintf(&sb, ", in %s", op)
	}
	if head := headroom(r.meter.Budget(), st); head != "" {
		fmt.Fprintf(&sb, ", budget used: %s", head)
	}
	sb.WriteByte('\n')
	io.WriteString(w, sb.String())
	return st.States, now
}

// headroom renders the used fraction of every bounded budget dimension
// ("states 45%, time 30%"), or "" for an unlimited budget.
func headroom(b engine.Budget, st engine.RunStats) string {
	var parts []string
	pct := func(used, max float64) string { return fmt.Sprintf("%.0f%%", 100*used/max) }
	if b.MaxStates > 0 {
		parts = append(parts, "states "+pct(float64(st.States), float64(b.MaxStates)))
	}
	if b.MaxTransitions > 0 {
		parts = append(parts, "transitions "+pct(float64(st.Transitions), float64(b.MaxTransitions)))
	}
	if b.Timeout > 0 {
		parts = append(parts, "time "+pct(float64(st.Elapsed), float64(b.Timeout)))
	}
	return strings.Join(parts, ", ")
}
