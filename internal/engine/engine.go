// Package engine provides resource governance for the explicit-state
// checking core: wall-clock, state-count, and transition-count budgets with
// cooperative cancellation, run statistics, three-valued verdicts, and panic
// containment.
//
// The paper's whole value proposition is *decidable* discharge of the
// Composition Theorem's hypotheses on finite instances (§5). Decidable does
// not mean feasible: one oversized parameter makes the state graph
// astronomically large, and an engine that silently hangs or exhausts memory
// gives no verdict at all. Following the practice of mature explicit-state
// checkers such as TLC, every entry point of this engine is bounded,
// resumable in principle, and diagnosable: a check either Holds, is
// Violated with a counterexample, or is Unknown with the reason and the
// partial statistics of the aborted exploration.
package engine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Verdict is the three-valued outcome of a resource-governed check.
type Verdict int

const (
	// Holds: the property was verified on the full instance.
	Holds Verdict = iota
	// Violated: a counterexample was found.
	Violated
	// Unknown: the engine could not decide — budget exhausted, cancelled,
	// or an internal error was contained.
	Unknown
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Holds:
		return "HOLDS"
	case Violated:
		return "VIOLATED"
	default:
		return "UNKNOWN"
	}
}

// ExitCode returns the process exit code contract of the CLIs:
// 0 holds, 1 violated, 2 unknown-or-error.
func (v Verdict) ExitCode() int {
	switch v {
	case Holds:
		return 0
	case Violated:
		return 1
	default:
		return 2
	}
}

// RunStats records what an exploration actually did — the observability
// counterpart of the budget. All counters are cumulative over the meter's
// lifetime, which may span several graph constructions and checks.
type RunStats struct {
	// States is the number of distinct states added to graphs.
	States int
	// Transitions is the number of graph edges explored.
	Transitions int
	// SCCs is the number of strongly connected components examined by
	// fair-cycle search.
	SCCs int
	// PeakFrontier is the largest BFS frontier observed.
	PeakFrontier int
	// Elapsed is the wall-clock time since the meter started.
	Elapsed time.Duration
}

// String renders the statistics on one line.
func (s RunStats) String() string {
	return fmt.Sprintf("%d states, %d transitions, %d SCCs, peak frontier %d, elapsed %v",
		s.States, s.Transitions, s.SCCs, s.PeakFrontier, s.Elapsed.Round(time.Millisecond))
}

// Observer receives the meter's own flight-recorder events: budget
// warnings and exhaustion, SCC milestones, and the diagnostics layers above
// the engine drop through Meter.Note. The obs package provides the standard
// implementation; a nil observer costs one pointer load and branch per
// callback site.
//
// Concurrency contract: an Observer must be installed with SetObserver
// before the exploration it observes starts and must itself be safe for
// concurrent use — callbacks arrive from worker goroutines.
type Observer interface {
	// ObserveEvent records one flight-recorder event. kind is a short stable
	// tag ("budget", "budget-exhausted", "scc", "unknown-verdict", and the
	// graph-cache outcomes "cache-hit", "cache-miss", "cache-corrupt",
	// "checkpoint-saved", "resume"); msg is human-readable.
	ObserveEvent(kind, msg string)
}

// Budget bounds an exploration. The zero value is unlimited.
type Budget struct {
	// Timeout is the wall-clock budget (0 = unlimited).
	Timeout time.Duration
	// MaxStates bounds the cumulative number of states added to graphs
	// (0 = unlimited).
	MaxStates int
	// MaxTransitions bounds the cumulative number of explored transitions
	// (0 = unlimited).
	MaxTransitions int
	// Ctx, if non-nil, cancels the exploration when done.
	Ctx context.Context
}

// Meter returns a fresh meter enforcing the budget, with the wall clock
// started now.
func (b Budget) Meter() *Meter {
	m := &Meter{budget: b, start: time.Now()}
	if b.Timeout > 0 {
		m.deadline = m.start.Add(b.Timeout)
		m.warnTime80 = m.start.Add(b.Timeout * 8 / 10)
		m.warnTime95 = m.start.Add(b.Timeout * 19 / 20)
	}
	if b.MaxStates > 0 {
		m.warn80s = int64(b.MaxStates) * 8 / 10
		m.warn95s = int64(b.MaxStates) * 19 / 20
	}
	if b.MaxTransitions > 0 {
		m.warn80t = int64(b.MaxTransitions) * 8 / 10
		m.warn95t = int64(b.MaxTransitions) * 19 / 20
	}
	return m
}

// NoLimit returns a meter that only counts, never aborts.
func NoLimit() *Meter { return Budget{}.Meter() }

// timeCheckMask amortises wall-clock and cancellation polls: they run every
// timeCheckMask+1 ticks. Exploration loops tick at least once per state, so
// deadline overruns are detected promptly relative to exploration speed.
const timeCheckMask = 63

// Meter enforces a Budget and accumulates RunStats. It is used
// cooperatively: exploration loops call Tick/AddState/AddTransitions and
// abort when one returns an error. Once exhausted, the error latches —
// every subsequent call fails fast, so deeply nested searches unwind
// promptly without extra plumbing.
//
// Concurrency contract: a Meter is safe for concurrent use. The parallel
// frontier exploration of package ts shares one meter across its whole
// worker pool, so all counters are atomic and the latched error is guarded;
// budget overruns detected by racing workers latch exactly one error.
type Meter struct {
	budget   Budget
	start    time.Time
	deadline time.Time

	states       atomic.Int64
	transitions  atomic.Int64
	sccs         atomic.Int64
	peakFrontier atomic.Int64
	ticks        atomic.Int64

	failed atomic.Bool // fast path: true once err is latched
	mu     sync.Mutex
	err    error

	// obs, when non-nil, receives flight-recorder events. It must be set
	// with SetObserver before the metered exploration starts (the field is
	// read without synchronization on hot paths).
	obs Observer
	// warn80/warn95 are precomputed budget-warning thresholds (0 = none):
	// [0]/[1] states, [2]/[3] transitions at 80%/95%. Time warnings use
	// warnTime80/95. Each fires at most once, latched in warned.
	warn80s, warn95s int64
	warn80t, warn95t int64
	warnTime80       time.Time
	warnTime95       time.Time
	warned           [6]atomic.Bool
}

// Indexes into Meter.warned.
const (
	warnIdxStates80 = iota
	warnIdxStates95
	warnIdxTrans80
	warnIdxTrans95
	warnIdxTime80
	warnIdxTime95
)

// SetObserver installs the observer receiving this meter's events. It must
// be called before the metered exploration starts; the observer itself must
// be safe for concurrent use.
func (m *Meter) SetObserver(o Observer) { m.obs = o }

// Observer returns the installed observer, or nil.
func (m *Meter) Observer() Observer { return m.obs }

// Budget returns the budget this meter enforces.
func (m *Meter) Budget() Budget { return m.budget }

// Note forwards one flight-recorder event to the observer, if any. Layers
// above the engine use it to drop diagnostics into the flight recorder
// without depending on the obs package.
func (m *Meter) Note(kind, msg string) {
	if m.obs != nil {
		m.obs.ObserveEvent(kind, msg)
	}
}

// warnOnce fires the i-th budget warning exactly once.
func (m *Meter) warnOnce(i int, msg string) {
	if !m.warned[i].Swap(true) {
		m.obs.ObserveEvent("budget", msg)
	}
}

// Heartbeat returns a monotone counter that advances with every unit of
// cooperative work: ticks, states, transitions, and SCCs. The stall
// watchdog (obs.StartWatchdog) samples it; a heartbeat that stops moving
// means the exploration is wedged, not merely slow.
func (m *Meter) Heartbeat() int64 {
	return m.ticks.Load() + m.states.Load() + m.transitions.Load() + m.sccs.Load()
}

// Abort latches a budget-style failure from outside the exploration loops —
// the stall watchdog, a signal handler. The exploration unwinds at its next
// cooperative call (Tick/AddState/AddTransitions) and the run degrades to an
// UNKNOWN verdict carrying reason, exactly like an exhausted budget.
func (m *Meter) Abort(reason string) error { return m.fail(reason) }

// Err returns the latched exhaustion error, or nil.
func (m *Meter) Err() error {
	if !m.failed.Load() {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Exhausted reports whether the budget has been exhausted.
func (m *Meter) Exhausted() bool { return m.failed.Load() }

// Stats returns a snapshot of the statistics with Elapsed filled in.
func (m *Meter) Stats() RunStats {
	return RunStats{
		States:       int(m.states.Load()),
		Transitions:  int(m.transitions.Load()),
		SCCs:         int(m.sccs.Load()),
		PeakFrontier: int(m.peakFrontier.Load()),
		Elapsed:      time.Since(m.start),
	}
}

func (m *Meter) fail(reason string) error {
	m.mu.Lock()
	first := false
	if m.err == nil {
		m.err = &BudgetError{Reason: reason, Stats: m.Stats()}
		m.failed.Store(true)
		first = true
	}
	err := m.err
	m.mu.Unlock()
	// Emit outside the lock: the observer may read meter state.
	if first && m.obs != nil {
		m.obs.ObserveEvent("budget-exhausted", reason)
	}
	return err
}

// Tick is the cooperative cancellation point: call it once per unit of work
// (state popped, assignment enumerated, SCC root visited). It polls the
// wall clock and the context on an amortised schedule.
func (m *Meter) Tick() error {
	if m.failed.Load() {
		return m.Err()
	}
	if m.ticks.Add(1)&timeCheckMask != 0 {
		return nil
	}
	if !m.deadline.IsZero() {
		now := time.Now()
		if now.After(m.deadline) {
			return m.fail(fmt.Sprintf("wall-clock budget %v exceeded", m.budget.Timeout))
		}
		if m.obs != nil {
			if now.After(m.warnTime95) {
				m.warnOnce(warnIdxTime95, fmt.Sprintf("95%% of wall-clock budget %v used", m.budget.Timeout))
			} else if now.After(m.warnTime80) {
				m.warnOnce(warnIdxTime80, fmt.Sprintf("80%% of wall-clock budget %v used", m.budget.Timeout))
			}
		}
	}
	if m.budget.Ctx != nil {
		select {
		case <-m.budget.Ctx.Done():
			return m.fail(fmt.Sprintf("cancelled: %v", m.budget.Ctx.Err()))
		default:
		}
	}
	return nil
}

// AddState records one state added to a graph and checks the state budget.
func (m *Meter) AddState() error {
	if m.failed.Load() {
		return m.Err()
	}
	n := m.states.Add(1)
	if m.budget.MaxStates > 0 && n > int64(m.budget.MaxStates) {
		return m.fail(fmt.Sprintf("state budget %d exceeded", m.budget.MaxStates))
	}
	if m.obs != nil && m.warn80s > 0 {
		if n >= m.warn95s {
			m.warnOnce(warnIdxStates95, fmt.Sprintf("95%% of state budget used (%d of %d)", n, m.budget.MaxStates))
		} else if n >= m.warn80s {
			m.warnOnce(warnIdxStates80, fmt.Sprintf("80%% of state budget used (%d of %d)", n, m.budget.MaxStates))
		}
	}
	return m.Tick()
}

// AddTransitions records n explored transitions and checks the transition
// budget.
func (m *Meter) AddTransitions(n int) error {
	if m.failed.Load() {
		return m.Err()
	}
	total := m.transitions.Add(int64(n))
	if m.budget.MaxTransitions > 0 && total > int64(m.budget.MaxTransitions) {
		return m.fail(fmt.Sprintf("transition budget %d exceeded", m.budget.MaxTransitions))
	}
	if m.obs != nil && m.warn80t > 0 {
		if total >= m.warn95t {
			m.warnOnce(warnIdxTrans95, fmt.Sprintf("95%% of transition budget used (%d of %d)", total, m.budget.MaxTransitions))
		} else if total >= m.warn80t {
			m.warnOnce(warnIdxTrans80, fmt.Sprintf("80%% of transition budget used (%d of %d)", total, m.budget.MaxTransitions))
		}
	}
	return nil
}

// sccMilestoneMask amortises SCC milestone events: one fires every
// sccMilestoneMask+1 components examined.
const sccMilestoneMask = 8191

// NoteSCC records one strongly connected component examined.
func (m *Meter) NoteSCC() {
	n := m.sccs.Add(1)
	if m.obs != nil && n&sccMilestoneMask == 0 {
		m.obs.ObserveEvent("scc", fmt.Sprintf("%d SCCs examined", n))
	}
}

// NoteFrontier records the current BFS frontier size (for the level-
// synchronous exploration, the width of a level).
func (m *Meter) NoteFrontier(n int) {
	v := int64(n)
	for {
		cur := m.peakFrontier.Load()
		if v <= cur || m.peakFrontier.CompareAndSwap(cur, v) {
			return
		}
	}
}

// BudgetError reports that an exploration was aborted because its budget
// was exhausted (or the instance was statically recognised as out of
// reach). It carries the partial statistics so the aborted run is still
// diagnosable.
type BudgetError struct {
	Reason string
	Stats  RunStats
}

// Error renders the exhaustion reason.
func (e *BudgetError) Error() string { return "budget exhausted: " + e.Reason }

// EngineError is a contained internal failure: a panic recovered inside the
// exploration core, converted into a diagnosable error carrying the
// offending state fingerprint and formula instead of crashing the process.
type EngineError struct {
	// Op names the engine entry point that failed.
	Op string
	// Fingerprint is the key of the state being processed, if known.
	Fingerprint string
	// Formula renders the property being evaluated, if known.
	Formula string
	// PanicVal is the recovered panic value.
	PanicVal string
	// Stack is the goroutine stack at the point of the panic.
	Stack string
}

// Error renders the failure without the stack (use Stack for post-mortems).
func (e *EngineError) Error() string {
	msg := fmt.Sprintf("internal engine error in %s: %s", e.Op, e.PanicVal)
	if e.Fingerprint != "" {
		msg += fmt.Sprintf(" (state %s)", e.Fingerprint)
	}
	if e.Formula != "" {
		msg += fmt.Sprintf(" (formula %s)", e.Formula)
	}
	return msg
}

// Capture converts a panic in the enclosing function into an *EngineError
// assigned to *err. Use as
//
//	defer engine.Capture(&err, "ts.Build", func() (string, string) { return cur.Key(), "" })
//
// where the diag callback reports the state fingerprint and formula under
// examination when the panic fired (either may be empty; diag may be nil).
func Capture(err *error, op string, diag func() (fingerprint, formula string)) {
	r := recover()
	if r == nil {
		return
	}
	fp, f := "", ""
	if diag != nil {
		fp, f = diag()
	}
	*err = &EngineError{
		Op:          op,
		Fingerprint: fp,
		Formula:     f,
		PanicVal:    fmt.Sprint(r),
		Stack:       string(debug.Stack()),
	}
}

// AsUnknown classifies an error: budget exhaustion and contained engine
// panics yield an Unknown verdict (with the reason and any partial
// statistics); other errors are the caller's problem.
func AsUnknown(err error) (reason string, stats RunStats, ok bool) {
	var be *BudgetError
	if errors.As(err, &be) {
		return be.Reason, be.Stats, true
	}
	var ee *EngineError
	if errors.As(err, &ee) {
		return ee.Error(), RunStats{}, true
	}
	return "", RunStats{}, false
}

// BudgetFlags registers the standard budget flags on a FlagSet and returns
// the bound values; call Meter after parsing.
type BudgetFlags struct {
	TimeoutMS      int
	MaxStates      int
	MaxTransitions int
}

// AddBudgetFlags registers -budget-ms, -max-states, and -max-transitions.
func AddBudgetFlags(fs *flag.FlagSet) *BudgetFlags {
	b := &BudgetFlags{}
	fs.IntVar(&b.TimeoutMS, "budget-ms", 0, "wall-clock budget in milliseconds (0 = unlimited)")
	fs.IntVar(&b.MaxStates, "max-states", 0, "maximum states to explore across all graphs (0 = unlimited)")
	fs.IntVar(&b.MaxTransitions, "max-transitions", 0, "maximum transitions to explore (0 = unlimited)")
	return b
}

// Budget converts the parsed flags into a Budget.
func (b *BudgetFlags) Budget() Budget {
	return Budget{
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
		MaxStates:      b.MaxStates,
		MaxTransitions: b.MaxTransitions,
	}
}

// Meter converts the parsed flags into a running meter.
func (b *BudgetFlags) Meter() *Meter { return b.Budget().Meter() }

// DefaultWorkers is the CLI -workers default: every CPU the runtime will
// schedule on, capped so container-reported core counts in the hundreds
// don't allocate hundreds of worker arenas for explorations that rarely
// benefit past a few dozen workers.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 16 {
		w = 16
	}
	if w < 1 {
		w = 1
	}
	return w
}

// AddWorkersFlag registers the -workers flag shared by the CLIs: the number
// of goroutines used by parallel frontier exploration. The default is
// DefaultWorkers (all CPUs, capped); -workers 1 is the sequential path.
// Exploration results are deterministic regardless of the worker count.
func AddWorkersFlag(fs *flag.FlagSet) *int {
	w := fs.Int("workers", DefaultWorkers(), fmt.Sprintf(
		"worker goroutines for state-graph exploration (default: all CPUs capped at 16, currently %d); results are identical at any setting",
		DefaultWorkers()))
	return w
}

// MaxWorkers bounds -workers to a sane multiple of any plausible machine:
// each worker owns persistent scratch arenas, so an absurd count would
// allocate gigabytes before exploring a single state.
const MaxWorkers = 4096

// ValidateWorkers vets a -workers flag value: zero and negative counts and
// counts beyond MaxWorkers are user errors (exit 2 in the CLIs), not
// requests to be satisfied. The flag default already resolves the machine's
// CPU count, so there is no "pick for me" sentinel left to spell.
func ValidateWorkers(w int) error {
	if w < 1 {
		return fmt.Errorf("-workers must be >= 1 (default: all CPUs capped at 16), got %d", w)
	}
	if w > MaxWorkers {
		return fmt.Errorf("-workers %d exceeds the maximum %d", w, MaxWorkers)
	}
	return nil
}
