package engine

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRunStatsString(t *testing.T) {
	tests := []struct {
		name  string
		stats RunStats
		want  string
	}{
		{
			name:  "zero",
			stats: RunStats{},
			want:  "0 states, 0 transitions, 0 SCCs, peak frontier 0, elapsed 0s",
		},
		{
			name: "partial",
			stats: RunStats{
				States:       51,
				Transitions:  88,
				PeakFrontier: 20,
				Elapsed:      17 * time.Millisecond,
			},
			want: "51 states, 88 transitions, 0 SCCs, peak frontier 20, elapsed 17ms",
		},
		{
			name: "full run with rounding",
			stats: RunStats{
				States:       34092,
				Transitions:  328662,
				SCCs:         2286,
				PeakFrontier: 1908,
				Elapsed:      4523391967 * time.Nanosecond,
			},
			want: "34092 states, 328662 transitions, 2286 SCCs, peak frontier 1908, elapsed 4.523s",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.stats.String(); got != tt.want {
				t.Errorf("RunStats.String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestBudgetErrorFormat(t *testing.T) {
	tests := []struct {
		name string
		err  *BudgetError
		want string
	}{
		{
			name: "zero progress",
			err:  &BudgetError{Reason: "state budget 0 exceeded"},
			want: "budget exhausted: state budget 0 exceeded",
		},
		{
			name: "partial progress",
			err: &BudgetError{
				Reason: "state budget 50 exceeded",
				Stats:  RunStats{States: 51, Transitions: 88},
			},
			want: "budget exhausted: state budget 50 exceeded",
		},
		{
			name: "wall clock",
			err: &BudgetError{
				Reason: "wall-clock budget 5ms exceeded",
				Stats:  RunStats{States: 10000, Elapsed: 6 * time.Millisecond},
			},
			want: "budget exhausted: wall-clock budget 5ms exceeded",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.err.Error(); got != tt.want {
				t.Errorf("BudgetError.Error() = %q, want %q", got, tt.want)
			}
			reason, stats, ok := AsUnknown(tt.err)
			if !ok {
				t.Fatalf("AsUnknown(%v) = false, want true", tt.err)
			}
			if reason != tt.err.Reason {
				t.Errorf("AsUnknown reason = %q, want %q", reason, tt.err.Reason)
			}
			if stats != tt.err.Stats {
				t.Errorf("AsUnknown stats = %+v, want %+v", stats, tt.err.Stats)
			}
		})
	}
}

// eventLog is a concurrency-safe Observer for tests.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) ObserveEvent(kind, msg string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, kind+": "+msg)
}

func (l *eventLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.events...)
}

func TestMeterBudgetWarningsFireOnce(t *testing.T) {
	log := &eventLog{}
	m := Budget{MaxStates: 100}.Meter()
	m.SetObserver(log)

	// Cross 80% and 95% repeatedly; each warning must fire exactly once.
	for i := 0; i < 96; i++ {
		if err := m.AddState(); err != nil {
			t.Fatalf("AddState within budget: %v", err)
		}
	}
	events := log.snapshot()
	var n80, n95 int
	for _, e := range events {
		if strings.Contains(e, "80% of state budget used") {
			n80++
		}
		if strings.Contains(e, "95% of state budget used") {
			n95++
		}
	}
	if n80 != 1 || n95 != 1 {
		t.Errorf("warning counts: 80%%=%d, 95%%=%d, want 1 each (events %v)", n80, n95, events)
	}

	// Exhaustion latches and emits budget-exhausted exactly once.
	for i := 0; i < 10; i++ {
		if err := m.AddState(); err == nil && i > 4 {
			t.Fatalf("AddState beyond budget should fail")
		}
	}
	var nEx int
	for _, e := range log.snapshot() {
		if strings.HasPrefix(e, "budget-exhausted:") {
			nEx++
		}
	}
	if nEx != 1 {
		t.Errorf("budget-exhausted events = %d, want 1", nEx)
	}
}

func TestMeterTransitionWarnings(t *testing.T) {
	log := &eventLog{}
	m := Budget{MaxTransitions: 1000}.Meter()
	m.SetObserver(log)
	for i := 0; i < 10; i++ {
		if err := m.AddTransitions(96); err != nil {
			t.Fatalf("AddTransitions within budget: %v", err)
		}
	}
	var n80, n95 int
	for _, e := range log.snapshot() {
		if strings.Contains(e, "80% of transition budget used") {
			n80++
		}
		if strings.Contains(e, "95% of transition budget used") {
			n95++
		}
	}
	if n80 != 1 || n95 != 1 {
		t.Errorf("warning counts: 80%%=%d, 95%%=%d, want 1 each", n80, n95)
	}
}

func TestMeterNoObserverNoWarnings(t *testing.T) {
	// A meter without an observer must cross thresholds silently and still
	// enforce the budget.
	m := Budget{MaxStates: 10}.Meter()
	for i := 0; i < 10; i++ {
		if err := m.AddState(); err != nil {
			t.Fatalf("AddState within budget: %v", err)
		}
	}
	if err := m.AddState(); err == nil {
		t.Fatal("AddState beyond budget should fail")
	}
}

func TestMeterNoteForwardsEvents(t *testing.T) {
	log := &eventLog{}
	m := NoLimit()
	m.Note("ignored", "observer not attached yet") // must not panic
	m.SetObserver(log)
	m.Note("custom", "hello")
	events := log.snapshot()
	if len(events) != 1 || events[0] != "custom: hello" {
		t.Errorf("events = %v, want [custom: hello]", events)
	}
}

func TestMeterWarningsConcurrent(t *testing.T) {
	// Hammer the warning thresholds from many goroutines; -race must stay
	// quiet and each warning still fires exactly once.
	log := &eventLog{}
	m := Budget{MaxStates: 10000, MaxTransitions: 10000}.Meter()
	m.SetObserver(log)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				if m.AddState() != nil {
					return
				}
				if m.AddTransitions(1) != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	counts := map[string]int{}
	for _, e := range log.snapshot() {
		for _, key := range []string{
			"80% of state budget", "95% of state budget",
			"80% of transition budget", "95% of transition budget",
			"budget-exhausted:",
		} {
			if strings.Contains(e, key) {
				counts[key]++
			}
		}
	}
	for key, n := range counts {
		if n > 1 {
			t.Errorf("%q fired %d times, want at most once", key, n)
		}
	}
	if counts["budget-exhausted:"] != 1 {
		t.Errorf("budget-exhausted fired %d times, want exactly once", counts["budget-exhausted:"])
	}
}
