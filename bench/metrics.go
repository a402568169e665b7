package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names; TestMetricNamesMatchBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"; empty for per-layer metrics
}

// e2eMetrics are printed by every untraced run, for every workload, and
// are never zero. What "an operation" and "work" are depends on the
// workload (see README.md): a pass of the batch workloads, a served job
// of serve_mix.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
}

// layerMetrics are printed by every traced run. A layer a workload does
// not exercise reports 0.
var layerMetrics = []metricDef{
	{"workloads.compile_s", "s", ""},
	{"core.plan_s", "s", ""},
	{"core.plan_builds", "count", ""},
	{"core.sw_s", "s", ""},
	{"core.sw_frac", "ratio", ""},
	{"core.hw_s", "s", ""},
	{"core.hw_frac", "ratio", ""},
	{"stats.summarize_s", "s", ""},
	{"stats.frac", "ratio", ""},
	{"pool.busy_frac", "ratio", ""},
	{"core.sw.memo_ratio", "ratio", ""},
	{"core.hw.memo_ratio", "ratio", ""},
	{"core.hw.saved_frac", "ratio", ""},
	{"core.arena_hit_ratio", "ratio", ""},
	{"fleet.group_s", "s", ""},
	{"fleet.table_s", "s", ""},
	{"fleet.draw_s", "s", ""},
	{"fleet.draw_frac", "ratio", ""},
	{"fleet.draws_per_s", "1/s", ""},
	{"fleet.fallbacks", "count", ""},
	{"layers.coverage_frac", "ratio", ""},
	{"serve.jobs", "count", ""},
	{"serve.job_ms_tail", "ms", ""},
	{"serve.tail_pct", "%", ""},
	{"serve.submit_ms_p50", "ms", ""},
	{"serve.submit_ms_tail", "ms", ""},
	{"serve.queue_ms_p50", "ms", ""},
	{"serve.queue_ms_tail", "ms", ""},
	{"serve.queue_frac", "ratio", ""},
	{"serve.compute_ms_p50", "ms", ""},
	{"serve.compute_ms_tail", "ms", ""},
	{"serve.cache_hit_ratio", "ratio", ""},
	{"serve.coalesced_frac", "ratio", ""},
	{"serve.shed_frac", "ratio", ""},
	{"serve.unfinished_frac", "ratio", ""},
	{"serve.polls_per_job", "ratio", ""},
	{"serve.max_rate_rps", "1/s", ""},
	{"bench.late_ms_tail", "ms", ""},
	{"bench.trace_overhead_frac", "ratio", ""},
}

// metric is one measured value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract between the
// benchmark and whoever compares its runs.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill copies the named values into a result's metric map, in the units
// of defs. Every def must have a value: a missing one is a bug in the
// workload, and reporting it as 0 would hide that.
func fill(defs []metricDef, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the q-quantile of sorted by the nearest-rank rule.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tailLevels are the percentiles a tail timing may be reported at,
// highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// tail reports a timing's tail as the highest level in tailLevels that
// still has at least ten samples above it, so a tail is never one or two
// outliers. ok is false when even the median has fewer than ten samples
// above it.
func tail(sorted []float64) (level, value float64, ok bool) {
	n := len(sorted)
	for _, q := range tailLevels {
		i := int(math.Ceil(q*float64(n))) - 1
		if i >= 0 && n-1-i >= 10 {
			return q, sorted[i], true
		}
	}
	return 0, 0, false
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones an external checker
// computes. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// ratio is a/b, or 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
