package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine or the server sees,
// printed by an untraced run (-trace 0) on every workload.
var endToEnd = []metricDef{
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"iso_tests_per_query", "count"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MiB"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p90_ms", "ms"},
}

// perLayer are the per-module metrics of a traced run (-trace 1) on every
// workload. The README maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"index.filter_us", "us"},
	{"index.filter_share", "frac"},
	{"index.verify_us", "us"},
	{"index.verify_calls_per_query", "count"},
	{"index.verify_true_ratio", "frac"},
	{"index.verify_share", "frac"},
	{"core.self_us", "us"},
	{"core.self_share", "frac"},
	{"core.flush_ms", "ms"},
	{"core.flushes", "count"},
	{"core.short_circuit_frac", "frac"},
	{"core.prune_ratio", "frac"},
	{"core.cache_iso_tests_per_query", "count"},
	{"core.sub_hits_per_query", "count"},
	{"core.super_hits_per_query", "count"},
	{"features.paths_us", "us"},
	{"index.size_mb", "MiB"},
	{"core.cache_mb", "MiB"},
	{"runtime.allocs_per_query", "count"},
	{"runtime.cpu_us_per_query", "us"},
	{"runtime.gc_cycles", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"mutate.add_p50_ms", "ms"},
	{"mutate.remove_p50_ms", "ms"},
	{"persist.shutdown_save_ms", "ms"},
	{"persist.snapshot_mb", "MiB"},
	{"persist.restore_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"fail_frac", "frac"},
}

// servedLayer are the per-layer metrics only the served workload has: a
// server, its HTTP API and an open-loop generator.
var servedLayer = []metricDef{
	{"served.sub_p50_ms", "ms"},
	{"served.super_p50_ms", "ms"},
	{"server.rejected", "count"},
	{"server.errors", "count"},
	{"server.super_rebuilds", "count"},
	{"loadgen.late_p99_ms", "ms"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's measurements and counts.
type report struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // reasons the run is not correct
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a wrong or failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// metricSet is what a run prints: the end-to-end metrics untraced, the
// per-layer metrics traced.
func metricSet(traced, served bool) []metricDef {
	switch {
	case !traced:
		return endToEnd
	case served:
		return append(append([]metricDef{}, perLayer...), servedLayer...)
	}
	return perLayer
}

// result selects the metric set of the run mode. A metric the run did
// not measure is an error: it would otherwise print as a silent zero.
func (r *report) result(traced, served bool) (result, error) {
	set := metricSet(traced, served)
	out := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range set {
		v, ok := r.values[m.name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out, nil
}

// print writes one "name value unit" line per metric, then the result as
// the last line.
func (res result) print(w io.Writer) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, _ := json.Marshal(res) // plain data: cannot fail
	fmt.Fprintf(w, "%s\n", b)
}
