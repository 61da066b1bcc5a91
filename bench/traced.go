package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
)

// perLayer lists the per-layer metrics in report order. Each comes from the
// workload whose run exercises the layer (see README.md for the map from each
// metric to the end-to-end metric and workload it should move), so every
// traced run reports every layer whichever workload it was started for.
var perLayer = []struct{ name, unit string }{
	{"ag.graphs_built", "count"},
	{"ag.h1_s", "s"},
	{"ag.h2a_a_s", "s"},
	{"ag.h2a_b_s", "s"},
	{"ag.h2b_s", "s"},
	{"ts.build_s", "s"},
	{"ts.product_s", "s"},
	{"ts.build_states_per_s", "1/s"},
	{"ts.succgen_ns_per_state", "ns"},
	{"ts.succgen_succs_per_state", "count"},
	{"ts.barrier_wait_s", "s"},
	{"ts.serial_commit_s", "s"},
	{"ts.parallel_commit_s", "s"},
	{"ts.worker_busy_s", "s"},
	{"store.intern_ns", "ns"},
	{"store.new_frac", "ratio"},
	{"store.lock_contended_frac", "ratio"},
	{"store.collision_probes", "count"},
	{"reduce.canon_ns_per_state", "ns"},
	{"reduce.canon_s", "s"},
	{"reduce.sym_collapsed_frac", "ratio"},
	{"check.safety_s", "s"},
	{"check.liveness_s", "s"},
	{"check.sccs", "count"},
	{"check.scc_ns_per_edge", "ns"},
	{"cache.load_s", "s"},
	{"cache.decode_mbps", "MB/s"},
	{"cache.store_s", "s"},
	{"cache.encode_mbps", "MB/s"},
	{"cache.snapshot_bytes", "bytes"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.retries", "count"},
	{"form.compiled_ns_per_step", "ns"},
	{"form.interp_ns_per_step", "ns"},
	{"vet.s", "s"},
	{"absint.analyze_s", "s"},
	{"obs.overhead_frac", "ratio"},
	{"host.num_cpu", "count"},
	{"host.steal_frac", "ratio"},
	{"host.calibration_s", "s"},
}

// tracedRun is one CLI run with -report and -metrics-out.
type tracedRun struct {
	rep  *runReport
	prom promMetrics
	wall float64
}

// traced runs args with a run report and a metrics file, checks the verdict,
// and records the run, with the CLI's own span tree under it, in the
// harness trace.
func (h *harness) traced(name, tool string, args []string, want verdict) (*tracedRun, error) {
	rpath, mpath := name+".report.json", name+".prom"
	args = append(append([]string(nil), args...), "-report", rpath, "-metrics-out", mpath)
	end := h.spans.begin("cli:" + name)
	start := h.spans.now()
	s, err := h.exec(tool, args, want)
	parent := end()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(h.work, rpath))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep, err := parseReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if data, err = os.ReadFile(filepath.Join(h.work, mpath)); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prom, err := parseMetrics(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	h.spans.graft(parent, start, rep.Span)
	return &tracedRun{rep: rep, prom: prom, wall: s.wall}, nil
}

// tracedPass makes one traced CLI run per workload (two for fig9-warm: a
// cache fill into a fresh directory, then a warm run reading it), runs the
// in-process micro pass, and derives every per-layer metric. untraced holds
// the untraced median wall time of each workload measured in this set;
// obs.overhead_frac is the median over those workloads of traced wall ÷
// untraced median − 1.
func (h *harness) tracedPass(ws []*workload, untraced map[string]float64, rng *rand.Rand) (map[string]float64, error) {
	defer h.spans.begin("traced-pass")()
	runs := map[string]*tracedRun{}
	var overheads []float64
	var snapshotBytes float64
	for _, w := range ws {
		args := w.args
		if w.warm {
			const dir = "traced-cache"
			args = append(append([]string(nil), w.args...), "-cache-dir", dir)
			fill, err := h.traced(w.name+"-fill", w.tool, args, w.want)
			if err != nil {
				return nil, err
			}
			runs[w.name+"-fill"] = fill
			if snapshotBytes, err = snapBytes(filepath.Join(h.work, dir)); err != nil {
				return nil, err
			}
		}
		r, err := h.traced(w.name, w.tool, args, w.want)
		if err != nil {
			return nil, err
		}
		runs[w.name] = r
		if u, ok := untraced[w.name]; ok && u > 0 {
			overheads = append(overheads, r.wall/u-1)
		}
	}

	pl, err := h.micro(rng)
	if err != nil {
		return nil, err
	}
	if err := derive(pl, runs); err != nil {
		return nil, err
	}
	pl["cache.snapshot_bytes"] = snapshotBytes
	pl["obs.overhead_frac"] = median(overheads)
	return pl, nil
}

// snapBytes totals the snapshot files of a cache directory.
func snapBytes(dir string) (float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("cache fill left no snapshots in %s", dir)
	}
	var total float64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += float64(fi.Size())
	}
	return total, nil
}

// derive computes the report- and counter-based per-layer metrics from the
// traced runs into pl.
func derive(pl map[string]float64, runs map[string]*tracedRun) error {
	fig9, app, sym := runs["fig9"], runs["appendix-a"], runs["fig9-sym"]
	fill, warm := runs["fig9-warm-fill"], runs["fig9-warm"]
	if fig9 == nil || app == nil || sym == nil || fill == nil || warm == nil {
		return fmt.Errorf("traced pass needs all four workloads")
	}
	var errs []error
	secs := func(r *tracedRun, prefix string) float64 {
		v, err := r.rep.spanSecs(prefix)
		errs = append(errs, err)
		return v
	}
	series := func(r *tracedRun, name string, scale float64) float64 {
		v, err := r.prom.get(name)
		errs = append(errs, err)
		return v * scale
	}

	// ag and ts: the Fig. 9 check's span tree.
	nb, buildS, buildStates := fig9.rep.spanTotal("build:")
	np, productS, _ := fig9.rep.spanTotal("product:")
	pl["ag.graphs_built"] = float64(nb + np)
	pl["ag.h1_s"] = secs(fig9, "H1")
	pl["ag.h2a_a_s"] = secs(fig9, "H2a-A")
	pl["ag.h2a_b_s"] = secs(fig9, "H2a-B")
	pl["ag.h2b_s"] = secs(fig9, "H2b")
	pl["ts.build_s"] = buildS
	pl["ts.product_s"] = productS
	if buildS <= 0 || np == 0 {
		errs = append(errs, fmt.Errorf("fig9 run report has no build or product spans"))
	} else {
		pl["ts.build_states_per_s"] = float64(buildStates) / buildS
	}
	pl["vet.s"] = secs(fig9, "vet")

	// The parallel frontier and the store: Appendix A's counters.
	const ns = 1e-9
	pl["ts.barrier_wait_s"] = series(app, "opentla_barrier_wait_nanoseconds_sum", ns)
	pl["ts.serial_commit_s"] = series(app, "opentla_barrier_commit_nanoseconds_total", ns)
	pl["ts.parallel_commit_s"] = series(app, "opentla_barrier_parallel_commit_nanoseconds_total", ns)
	pl["ts.worker_busy_s"] = series(app, "opentla_worker_busy_nanoseconds_total", ns)
	if acq := series(app, "opentla_store_lock_acquisitions_total", 1); acq > 0 {
		pl["store.lock_contended_frac"] = series(app, "opentla_store_lock_contended_total", 1) / acq
	}
	pl["store.collision_probes"] = series(app, "opentla_store_collision_probes_total", 1)

	// Symmetry reduction: the fig9-sym run.
	pl["reduce.canon_s"] = series(sym, "opentla_canon_nanoseconds_total", ns)
	if rd := sym.rep.Reduction; rd == nil || rd.FullSuccs+rd.AmpleSuccs == 0 {
		errs = append(errs, fmt.Errorf("fig9-sym run report has no reduction section"))
	} else {
		pl["reduce.sym_collapsed_frac"] = float64(rd.SymCollapsed) / float64(rd.FullSuccs+rd.AmpleSuccs)
	}

	// Checking and the cache: the warm run, where they are all the work,
	// and the fill that wrote the snapshots it reads.
	pl["check.safety_s"] = secs(warm, "check:safety")
	pl["check.liveness_s"] = secs(warm, "check:liveness")
	pl["check.sccs"] = float64(warm.rep.Stats.SCCs)
	pl["cache.load_s"] = series(warm, "opentla_cache_load_nanoseconds_sum", ns)
	pl["cache.store_s"] = series(fill, "opentla_cache_store_nanoseconds_sum", ns)
	if warm.rep.Cache == nil || fill.rep.Cache == nil {
		errs = append(errs, fmt.Errorf("fig9-warm run reports have no cache section"))
	} else {
		pl["cache.hits"] = float64(warm.rep.Cache.Hits)
		pl["cache.misses"] = float64(fill.rep.Cache.Misses)
		pl["cache.retries"] = float64(fill.rep.Cache.Retries + warm.rep.Cache.Retries)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
