// Package obs is the zero-dependency observability layer of the
// simulator: cheap atomic counters, max-watermark gauges and histograms,
// stage-scoped timing spans, wear time series, and a machine-readable
// run manifest. It exists so the long 18-configuration sweeps behind the
// paper's headline figures are not a black box — every run can report
// where wall-clock and cell writes went, per stage, without perturbing
// the engines it observes.
//
// The layer is disabled by default and compiles to near-no-ops in that
// state: Counter.Add, Gauge.Observe and StartSpan check one atomic
// boolean and return, so a disabled build of the wear engine pays well
// under the 2% BenchmarkHwEngine budget (the hot replay loop itself is
// never instrumented — all recording happens at epoch/job granularity).
// CLIs call Enable (via Run.Start) for the duration of a run; libraries
// never toggle the flag themselves.
//
// The primitives:
//
//   - Counter / Gauge: named monotonic totals (epochs simulated, memo
//     hits, writes accumulated) and max-watermark levels (pool queue
//     depth). Lock-free, safe for concurrent use from pool workers.
//   - Histogram: a lock-free log-bucketed distribution of raw values or
//     durations (job latency, queue wait, payload sizes).
//   - Span: a named stage timer. StartSpan("hw-replay") ... End()
//     records the span's wall time on the stage's duration histogram
//     and its longest-span watermark; Child derives "parent/child"
//     names so stages nest across pim.Sweep → core engine → pool
//     workers.
//   - Series: a named append-only time series (the per-epoch wear
//     trajectory), optionally carrying the heatmap /wear.png serves.
//   - The event ring and the structured log: bounded drop-oldest rings
//     of span begin/end marks (exported as a Chrome trace) and of
//     request-level JSONL records.
//   - Manifest: a JSON record of one CLI run — command, config, seed,
//     git describe, per-stage timings and counter totals — written to
//     out/manifest_<cmd>.json so every artifact directory is
//     self-describing.
//
// Counters, gauges, histograms and stage timers share one process-wide
// name→metric registry: Capture snapshots it, Reset clears it (tests),
// WriteTable renders it for -metrics and WritePrometheus for /metrics.
package obs

import "sync/atomic"

// enabled gates every recording primitive. Manipulated only by
// Enable/Disable; read with a single atomic load on each hot call.
var enabled atomic.Bool

// Enable turns recording on. Until the next Disable every Counter.Add,
// Gauge.Observe and StartSpan records; intended to be called once at CLI
// startup (Run.Start does it) or around a test/benchmark region.
func Enable() { enabled.Store(true) }

// Disable turns recording back off; outstanding Spans started while
// enabled still record on End.
func Disable() { enabled.Store(false) }

// Enabled reports whether the layer is currently recording.
func Enabled() bool { return enabled.Load() }
