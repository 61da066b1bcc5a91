package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestVerdictExitCodes(t *testing.T) {
	cases := []struct {
		v    Verdict
		code int
		str  string
	}{
		{Holds, 0, "HOLDS"},
		{Violated, 1, "VIOLATED"},
		{Unknown, 2, "UNKNOWN"},
	}
	for _, c := range cases {
		if got := c.v.ExitCode(); got != c.code {
			t.Errorf("%s.ExitCode() = %d, want %d", c.v, got, c.code)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestMeterStateBudget(t *testing.T) {
	m := Budget{MaxStates: 3}.Meter()
	for i := 0; i < 3; i++ {
		if err := m.AddState(); err != nil {
			t.Fatalf("AddState %d: %v", i, err)
		}
	}
	err := m.AddState()
	if err == nil {
		t.Fatal("expected state budget exhaustion")
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected *BudgetError, got %T", err)
	}
	if !strings.Contains(be.Reason, "state budget 3") {
		t.Errorf("reason = %q", be.Reason)
	}
	if be.Stats.States != 4 {
		t.Errorf("partial stats states = %d, want 4", be.Stats.States)
	}
	// Latched: everything fails fast now.
	if err := m.Tick(); err == nil {
		t.Error("Tick after exhaustion should fail")
	}
	if !m.Exhausted() {
		t.Error("Exhausted() should be true")
	}
}

func TestMeterTransitionBudget(t *testing.T) {
	m := Budget{MaxTransitions: 10}.Meter()
	if err := m.AddTransitions(10); err != nil {
		t.Fatalf("AddTransitions: %v", err)
	}
	if err := m.AddTransitions(1); err == nil {
		t.Fatal("expected transition budget exhaustion")
	}
}

func TestMeterDeadline(t *testing.T) {
	m := Budget{Timeout: time.Nanosecond}.Meter()
	time.Sleep(time.Millisecond)
	var err error
	for i := 0; i <= timeCheckMask+1 && err == nil; i++ {
		err = m.Tick()
	}
	if err == nil {
		t.Fatal("expected deadline exhaustion")
	}
	if !strings.Contains(err.Error(), "wall-clock") {
		t.Errorf("error = %v", err)
	}
}

func TestMeterCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := Budget{Ctx: ctx}.Meter()
	var err error
	for i := 0; i <= timeCheckMask+1 && err == nil; i++ {
		err = m.Tick()
	}
	if err == nil {
		t.Fatal("expected cancellation")
	}
	if !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("error = %v", err)
	}
}

func TestNoLimitNeverAborts(t *testing.T) {
	m := NoLimit()
	for i := 0; i < 1000; i++ {
		if err := m.AddState(); err != nil {
			t.Fatalf("AddState: %v", err)
		}
		if err := m.AddTransitions(5); err != nil {
			t.Fatalf("AddTransitions: %v", err)
		}
	}
	m.NoteSCC()
	m.NoteFrontier(7)
	m.NoteFrontier(3)
	s := m.Stats()
	if s.States != 1000 || s.Transitions != 5000 || s.SCCs != 1 || s.PeakFrontier != 7 {
		t.Errorf("stats = %+v", s)
	}
	if s.Elapsed <= 0 {
		t.Error("elapsed should be positive")
	}
}

func TestCaptureConvertsPanic(t *testing.T) {
	boom := func() (err error) {
		defer Capture(&err, "test.Op", func() (string, string) { return "x=1", "[]P" })
		panic("invariant broken")
	}
	err := boom()
	if err == nil {
		t.Fatal("expected contained panic")
	}
	var ee *EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("expected *EngineError, got %T: %v", err, err)
	}
	if ee.Op != "test.Op" || ee.State != "x=1" || ee.Formula != "[]P" {
		t.Errorf("diag fields = %+v", ee)
	}
	if !strings.Contains(ee.Error(), "invariant broken") {
		t.Errorf("error = %v", ee)
	}
	if ee.Stack == "" {
		t.Error("stack should be captured")
	}
}

// TestCapturePanickingDiag: a diag that panics while the first panic is
// being recovered must not escape; the error keeps the op and the first
// panic value, with empty context.
func TestCapturePanickingDiag(t *testing.T) {
	boom := func() (err error) {
		defer Capture(&err, "test.Op", func() (string, string) { panic("diag broken") })
		panic("invariant broken")
	}
	var ee *EngineError
	if err := boom(); !errors.As(err, &ee) {
		t.Fatalf("expected *EngineError, got %T: %v", err, err)
	}
	if ee.Op != "test.Op" || ee.PanicVal != "invariant broken" || ee.State != "" || ee.Formula != "" {
		t.Errorf("fields = %+v", ee)
	}
}

func TestCaptureNoPanicLeavesErrAlone(t *testing.T) {
	fine := func() (err error) {
		defer Capture(&err, "test.Op", nil)
		return nil
	}
	if err := fine(); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAsUnknown(t *testing.T) {
	if r, st, ok := AsUnknown(&BudgetError{Reason: "out of gas", Stats: RunStats{States: 7}}); !ok || r != "out of gas" || st.States != 7 {
		t.Errorf("budget: %v %v %v", r, st, ok)
	}
	if r, _, ok := AsUnknown(&EngineError{Op: "x", PanicVal: "boom"}); !ok || !strings.Contains(r, "boom") {
		t.Errorf("engine: %v %v", r, ok)
	}
	if _, _, ok := AsUnknown(errors.New("plain")); ok {
		t.Error("plain error should not classify as Unknown")
	}
	if _, _, ok := AsUnknown(nil); ok {
		t.Error("nil should not classify as Unknown")
	}
}

// TestMeterConcurrent hammers one meter from several goroutines, checking
// that counters stay exact and that a budget overrun latches exactly one
// error visible to every goroutine. Run with -race.
func TestMeterConcurrent(t *testing.T) {
	m := NoLimit()
	const (
		goroutines = 8
		perG       = 1000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := m.AddState(); err != nil {
					t.Error(err)
					return
				}
				if err := m.AddTransitions(2); err != nil {
					t.Error(err)
					return
				}
				m.NoteFrontier(i)
				m.NoteSCC()
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	if st.States != goroutines*perG {
		t.Errorf("states = %d, want %d", st.States, goroutines*perG)
	}
	if st.Transitions != 2*goroutines*perG {
		t.Errorf("transitions = %d, want %d", st.Transitions, 2*goroutines*perG)
	}
	if st.SCCs != goroutines*perG {
		t.Errorf("sccs = %d, want %d", st.SCCs, goroutines*perG)
	}
	if st.PeakFrontier != perG-1 {
		t.Errorf("peak frontier = %d, want %d", st.PeakFrontier, perG-1)
	}
}

// TestMeterConcurrentBudgetLatch checks that racing workers overrunning the
// state budget all converge on the same latched error.
func TestMeterConcurrentBudgetLatch(t *testing.T) {
	m := Budget{MaxStates: 50}.Meter()
	const goroutines = 8
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := m.AddState(); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var latched error
	for g := 0; g < goroutines; g++ {
		if errs[g] == nil {
			continue
		}
		if latched == nil {
			latched = errs[g]
		}
		var be *BudgetError
		if !errors.As(errs[g], &be) {
			t.Fatalf("goroutine %d: got %v, want *BudgetError", g, errs[g])
		}
		if !strings.Contains(be.Reason, "state budget 50 exceeded") {
			t.Errorf("goroutine %d: reason %q", g, be.Reason)
		}
	}
	if latched == nil {
		t.Fatal("no goroutine observed the budget error")
	}
	if m.Err() != latched {
		t.Error("Err() should return the single latched error")
	}
	if !m.Exhausted() {
		t.Error("meter should report exhausted")
	}
}

// TestMeterConcurrentOverrunStopsAtFirstOverflow: workers racing past a
// budget stop the count at the first overflow, so an exhausted run reports
// the same partial count under any schedule: MaxStates+1 states, and
// MaxTransitions+1 transitions when each add is one.
func TestMeterConcurrentOverrunStopsAtFirstOverflow(t *testing.T) {
	const goroutines, limit = 8, 10
	for round := 0; round < 200; round++ {
		for _, tc := range []struct {
			name   string
			budget Budget
			add    func(*Meter) error
			count  func(RunStats) int
		}{
			{"states", Budget{MaxStates: limit}, (*Meter).AddState, func(s RunStats) int { return s.States }},
			{"transitions", Budget{MaxTransitions: limit}, func(m *Meter) error { return m.AddTransitions(1) }, func(s RunStats) int { return s.Transitions }},
		} {
			m := tc.budget.Meter()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2*limit; i++ {
						if tc.add(m) != nil {
							return
						}
					}
				}()
			}
			wg.Wait()
			var be *BudgetError
			if !errors.As(m.Err(), &be) {
				t.Fatalf("round %d %s: Err() = %v, want a *BudgetError", round, tc.name, m.Err())
			}
			if got, reported := tc.count(m.Stats()), tc.count(be.Stats); got != limit+1 || reported != limit+1 {
				t.Fatalf("round %d %s: count %d, reported %d, want %d for both", round, tc.name, got, reported, limit+1)
			}
		}
	}
}
