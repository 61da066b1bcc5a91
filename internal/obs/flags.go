package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"opentla/internal/engine"
)

// ProfileFlags carries the pprof flags shared by every CLI.
type ProfileFlags struct {
	CPUProfile string
	MemProfile string
}

// AddProfileFlags registers -cpuprofile and -memprofile.
func AddProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	p := &ProfileFlags{}
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling if requested and returns the stop func, which
// finishes the CPU profile and writes the heap profile. The stop func is
// safe to call when no profiling was requested.
func (p *ProfileFlags) Start() (func() error, error) {
	var cpu *os.File
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("creating CPU profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
		cpu = f
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil && first == nil {
				first = err
			}
		}
		if p.MemProfile != "" {
			f, err := os.Create(p.MemProfile)
			if err != nil {
				if first == nil {
					first = fmt.Errorf("creating heap profile: %w", err)
				}
				return first
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = fmt.Errorf("writing heap profile: %w", err)
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}

// Flags bundles the observability flags of the checking CLIs.
type Flags struct {
	// Progress turns on the live-progress line.
	Progress bool
	// ProgressInterval is the progress ticker period (default 1s). It must
	// be positive; Validate rejects anything else.
	ProgressInterval time.Duration
	// Report is the run-report output path ("" = none).
	Report string
	// StallTimeout arms the stall watchdog: a build making zero progress
	// for this long is aborted to an UNKNOWN verdict (0 = off).
	StallTimeout time.Duration
	// Trace is the Chrome Trace Event JSON output path ("" = none).
	Trace string
	// MetricsOut is the Prometheus text exposition output path ("" =
	// none). Either of Trace and MetricsOut turns telemetry on.
	MetricsOut string
	*ProfileFlags
}

// AddFlags registers -progress, -progress-interval, -report, -stall-timeout,
// -trace, -metrics-out, -cpuprofile, and -memprofile.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{ProfileFlags: AddProfileFlags(fs)}
	fs.BoolVar(&f.Progress, "progress", false,
		"print a live progress line to stderr (period set by -progress-interval)")
	fs.DurationVar(&f.ProgressInterval, "progress-interval", time.Second,
		"live-progress ticker period (must be > 0)")
	fs.StringVar(&f.Report, "report", "",
		"write a machine-readable JSON run report to this file")
	fs.DurationVar(&f.StallTimeout, "stall-timeout", 0,
		"abort to UNKNOWN when no exploration progress happens for this long (e.g. 30s; 0 = off)")
	fs.StringVar(&f.Trace, "trace", "",
		"write a Chrome Trace Event JSON timeline (per-worker tracks) to this file")
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write Prometheus text exposition of the run's performance counters to this file")
	return f
}

// Validate rejects flag combinations AddFlags cannot: currently a
// non-positive -progress-interval, which would wedge or spin the ticker.
func (f *Flags) Validate() error {
	if f.ProgressInterval <= 0 {
		return fmt.Errorf("-progress-interval must be positive, got %v", f.ProgressInterval)
	}
	return nil
}

// ProgressPeriod returns the ticker period StartProgress should use: the
// configured interval when -progress is on, 0 (disabled) otherwise.
func (f *Flags) ProgressPeriod() time.Duration {
	if f.Progress {
		return f.ProgressInterval
	}
	return 0
}

// Enabled reports whether the flags call for a recorder.
func (f *Flags) Enabled() bool {
	return f.Progress || f.Report != "" || f.StallTimeout > 0 || f.Trace != "" || f.MetricsOut != ""
}

// NewRecorder returns the run's recorder, installed as m's observer, or
// nil when no flag asks for one. -trace and -metrics-out turn its
// telemetry on.
func (f *Flags) NewRecorder(m *engine.Meter) *Recorder {
	if !f.Enabled() {
		return nil
	}
	r := New(m)
	if f.Trace != "" || f.MetricsOut != "" {
		r.EnableTelemetry()
	}
	return r
}

// Write is the one write path of a run's outputs: the report doc for
// -report, the timeline for -trace and the Prometheus text for
// -metrics-out, all from the one record rec (nil when the run failed
// before it had one). It writes every requested file even when one fails,
// and returns the errors joined.
func (f *Flags) Write(rec *Recorder, doc *Report) error {
	var errs []error
	if f.Report != "" {
		errs = append(errs, writeFile("writing run report", f.Report, doc.write))
	}
	if f.Trace != "" {
		errs = append(errs, writeFile("trace", f.Trace, rec.WriteTrace))
	}
	if f.MetricsOut != "" {
		errs = append(errs, writeFile("metrics", f.MetricsOut, rec.WritePrometheus))
	}
	return errors.Join(errs...)
}

// writeFile creates path and renders into it, prefixing errors with what.
func writeFile(what, path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := render(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: write %s: %w", what, path, err)
	}
	return f.Close()
}
