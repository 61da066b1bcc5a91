package obs_test

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"opentla/internal/cache"
	"opentla/internal/engine"
	"opentla/internal/obs"
	"opentla/internal/queue"
	"opentla/internal/reduce"
	"opentla/internal/ts"
)

var updateSeries = flag.Bool("update-series", false, "rewrite the Prometheus series golden")

// fig9Run runs an in-process Fig. 9 N=1 K=2 check at one worker with
// telemetry on and returns its recorder.
func fig9Run(t *testing.T, mode string, c ts.GraphCache) *obs.Recorder {
	t.Helper()
	cfg := queue.Config{N: 1, Vals: 2}
	opts, err := reduce.ParseFlag(mode)
	if err != nil {
		t.Fatal(err)
	}
	m := engine.NoLimit()
	rec := obs.New(m)
	rec.EnableTelemetry()
	th := cfg.Fig9Theorem()
	th.Workers = 1
	th.Reduce = opts
	th.Symmetry = cfg.DoubleSymmetry()
	th.Cache = c
	rep, err := th.CheckWith(m)
	if err != nil || rep.Verdict != engine.Holds {
		t.Fatalf("%s: Fig. 9 check: verdict %v, err %v", mode, rep, err)
	}
	return rec
}

// exposition renders a recorder's Prometheus text.
func exposition(t *testing.T, rec *obs.Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seriesSet lists every sample of an exposition as "name{labels} TYPE",
// where TYPE is the family's declared type (histogram samples carry their
// _bucket/_sum/_count suffix and the histogram type), sorted.
func seriesSet(t *testing.T, expo []byte) []string {
	t.Helper()
	types := map[string]string{}
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		name, _, _ := strings.Cut(series, "{")
		family := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "histogram" {
				family = base
			}
		}
		typ, ok := types[family]
		if !ok {
			t.Fatalf("sample %q has no # TYPE line", line)
		}
		out = append(out, series+" "+typ)
	}
	sort.Strings(out)
	return out
}

// TestPrometheusSeriesGolden pins the series set of -metrics-out for four
// Fig. 9 runs: reduction off, symmetry reduction, a cache fill, and the
// warm-cache run that reads it. The benchmark reads named series from this
// exposition and fails on a missing one, so a missing, renamed or retyped
// series is a breaking change. The golden was generated before the
// telemetry sinks were merged into one.
func TestPrometheusSeriesGolden(t *testing.T) {
	dir := t.TempDir()
	c, err := cache.Open(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, run := range []struct {
		name, mode string
		c          ts.GraphCache
	}{{"off", "off", nil}, {"sym", "sym", nil}, {"fill", "off", c}, {"warm", "off", c}} {
		for _, s := range seriesSet(t, exposition(t, fig9Run(t, run.mode, run.c))) {
			fmt.Fprintf(&got, "%s: %s\n", run.name, s)
		}
	}
	path := filepath.Join("testdata", "prometheus_series.golden")
	if *updateSeries {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-series to create): %v", err)
	}
	have := map[string]bool{}
	for _, l := range strings.Split(got.String(), "\n") {
		have[l] = true
	}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if !have[l] {
			t.Errorf("series missing, renamed or retyped: %s", l)
		}
	}
}

// corruptSecondLoad is a graph cache whose second Load fails as an
// unusable entry would.
type corruptSecondLoad struct {
	*cache.Cache
	loads int
}

func (c *corruptSecondLoad) Load(desc string) (*ts.Snapshot, error) {
	if c.loads++; c.loads == 2 {
		return nil, errors.New("injected unusable entry")
	}
	return c.Cache.Load(desc)
}

// TestViewsAgree: the report's metrics section and -metrics-out are views
// of one record. The run is reduced, fills a cache, hits the left-hand
// side a fill without reduction left, and meets one unusable entry.
func TestViewsAgree(t *testing.T) {
	c, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fig9Run(t, "off", c)
	rec := fig9Run(t, "sym", &corruptSecondLoad{Cache: c})
	rep := rec.Finish("test", obs.Config{}, engine.Holds, "")

	fromReport := map[string]int64{}
	for _, p := range rep.Metrics {
		key := p.Name
		if p.Labels != "" {
			key += "{" + p.Labels + "}"
		}
		if p.Type == "histogram" {
			fromReport[key+"_sum"], fromReport[key+"_count"] = p.Sum, p.Count
			continue
		}
		fromReport[key] = p.Value
	}
	prom := map[string]int64{}
	for _, line := range strings.Split(string(exposition(t, rec)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("bad sample %q", line)
		}
		prom[series] = v
		if got, ok := fromReport[series]; !ok || got != v {
			t.Errorf("%s = %d in -metrics-out, %d (present %v) in the report", series, v, got, ok)
		}
	}
	if len(prom) != len(fromReport) {
		t.Errorf("%d series in -metrics-out, %d in the report", len(prom), len(fromReport))
	}

	cs, rd := rep.Cache, rep.Reduction
	if cs == nil || rd == nil {
		t.Fatalf("report lacks cache or reduction section: %+v %+v", cs, rd)
	}
	if cs.Hits != 1 || cs.Misses != 1 || cs.Corrupt != 1 {
		t.Fatalf("cache = %+v, want 1 hit, 1 miss, 1 corrupt", cs)
	}
	for name, want := range map[string]int64{
		"opentla_cache_hits_total":           int64(cs.Hits),
		"opentla_reduce_sym_collapsed_total": rd.SymCollapsed,
		"opentla_reduce_full_succs_total":    rd.FullSuccs,
		"opentla_reduce_full_states_total":   rd.FullStates,
		// The one intended difference: an unusable entry is a miss to the
		// Prometheus counter (the build went cold) but stays apart as
		// cache.corrupt in the report.
		"opentla_cache_misses_total": int64(cs.Misses + cs.Corrupt),
	} {
		if prom[name] != want {
			t.Errorf("%s = %d, want %d from the report", name, prom[name], want)
		}
	}
}
