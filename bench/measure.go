package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stat summarizes the samples of one metric.
type stat struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, vals []float64) stat {
	q1, med, q3 := quartiles(vals)
	return stat{Unit: unit, N: len(vals), Median: med, Q1: q1, Q3: q3, Values: vals}
}

// quartiles returns the quartiles of vals by the same method as Python's
// statistics.quantiles(vals, n=4) (the "exclusive" method), so the spreads
// printed here match a reader's recomputation from the values.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// outcome collects the measurements of one workload over a set.
type outcome struct {
	wall, cpu, rss, states, setup []float64
	attempted, failed             int // timed runs only
}

// endToEnd lists the end-to-end metrics in report order. setup_s is the
// median set-up cost; fail_rate counts timed runs whose verdict was wrong.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"states_explored", "count"},
	{"fail_rate", "ratio"},
}

// stats summarizes the outcome, with times multiplied by scale (see
// refCalibration).
func (o *outcome) stats(scale float64) map[string]stat {
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	scaled := func(vals []float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * scale
		}
		return out
	}
	return map[string]stat{
		"wall_s":          summarize("s", scaled(o.wall)),
		"cpu_s":           summarize("s", scaled(o.cpu)),
		"peak_rss_mb":     summarize("MB", o.rss),
		"setup_s":         summarize("s", scaled(o.setup)),
		"states_explored": summarize("count", o.states),
		"fail_rate":       {Unit: "ratio", N: o.attempted, Median: rate, Q1: rate, Q3: rate, Values: []float64{rate}},
	}
}

// job is one scheduled run: a set-up measurement or a timed run.
type job struct {
	w     *workload
	setup bool
}

// measure runs the set-up and timed runs of every workload. Each workload
// first gets its first set-up run (for the warm workload that fills the
// cache its runs read) and its untimed warm-up runs. The remaining set-up
// runs and cfg.reps timed runs per workload are then shuffled by rng into one
// interleaved order, so machine drift and CPU steal fall on every workload
// and on set-up alike. Rounds of one timed run per workload are added until
// at least cfg.seconds of measurement have passed. Every run in that order
// is preceded by one calibration, whose times measure returns.
func (h *harness) measure(ws []*workload, rng *rand.Rand) (map[string]*outcome, []float64, error) {
	out := make(map[string]*outcome, len(ws))
	for _, w := range ws {
		o := &outcome{}
		out[w.name] = o
		s, err := h.setup(w, 0)
		if err != nil {
			return nil, nil, err
		}
		o.setup = append(o.setup, s)
		for i := 0; i < h.cfg.warmups; i++ {
			if _, err := h.run(w); err != nil {
				return nil, nil, err
			}
		}
	}
	var jobs []job
	for _, w := range ws {
		for i := 1; i < h.cfg.setupReps(w); i++ {
			jobs = append(jobs, job{w, true})
		}
		for i := 0; i < h.cfg.reps; i++ {
			jobs = append(jobs, job{w, false})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	var cal []float64
	start := time.Now()
	for len(jobs) > 0 {
		j := jobs[0]
		jobs = jobs[1:]
		o := out[j.w.name]
		cal = append(cal, calibrate())
		if j.setup {
			s, err := h.setup(j.w, len(o.setup))
			if err != nil {
				return nil, nil, err
			}
			o.setup = append(o.setup, s)
		} else {
			failedBefore := h.failed
			s, err := h.run(j.w)
			if err != nil {
				return nil, nil, err
			}
			o.attempted++
			o.failed += h.failed - failedBefore
			o.wall = append(o.wall, s.wall)
			o.cpu = append(o.cpu, s.cpu)
			o.rss = append(o.rss, s.rssMB)
			o.states = append(o.states, s.states)
		}
		if len(jobs) == 0 && time.Since(start) < time.Duration(h.cfg.seconds)*time.Second {
			for _, i := range rng.Perm(len(ws)) {
				jobs = append(jobs, job{ws[i], false})
			}
		}
	}
	return out, cal, nil
}

// host describes the machine a set ran on. StealFrac is CPU time stolen by
// the hypervisor per wall-clock second over the set, summed over CPUs; a set
// above stealLimit was measured on a machine too busy to compare against.
// Calibration summarizes the calibration task's times and Scale is the
// factor the set's end-to-end times were multiplied by (see refCalibration).
type host struct {
	NumCPU      int     `json:"num_cpu"`
	StealFrac   float64 `json:"steal_frac"`
	Calibration stat    `json:"calibration"`
	Scale       float64 `json:"scale"`
}

const stealLimit = 0.25

// stealTicks reads the cumulative steal time of all CPUs from /proc/stat,
// in clock ticks (USER_HZ, 100 per second on Linux). It returns -1 where
// /proc/stat is unavailable.
func stealTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return -1
	}
	return v
}

// stealMeter measures steal over an interval.
type stealMeter struct {
	ticks float64
	start time.Time
}

func startSteal() stealMeter { return stealMeter{stealTicks(), time.Now()} }

func (s stealMeter) frac() float64 {
	end := stealTicks()
	wall := time.Since(s.start).Seconds()
	if s.ticks < 0 || end < 0 || wall <= 0 {
		return 0
	}
	return (end - s.ticks) / 100 / wall
}

func warnSteal(h host) {
	if h.StealFrac > stealLimit {
		fmt.Fprintf(os.Stderr, "bench: warning: CPU steal was %.2f CPU-s per wall-second (limit %.2f); re-run this set rather than compare it\n",
			h.StealFrac, stealLimit)
	}
}
