// Command benchdiff compares two benchjson documents (see
// internal/tools/benchjson) and reports per-benchmark ns/op deltas — the
// repo's benchmark regression gate.
//
// Usage:
//
//	make bench-current
//	go run ./internal/tools/benchdiff -new out/bench_current.json
//	go run ./internal/tools/benchdiff -new out/bench_current.json -strict
//
// The base defaults to the committed BENCH_engine.json snapshot; -new
// defaults to stdin so fresh results can be piped straight from
// benchjson. A benchmark regresses when it is slower than the base by
// more than -threshold percent and its base timing is at least -min-ns
// (faster benchmarks are noise-dominated at -benchtime=1x and are only
// reported). Benchmarks recorded with -benchmem are additionally gated
// on allocation growth: more than -alloc-threshold percent additional
// allocs/op over the base is a regression (bases under 64 allocs/op are
// report-only). A benchmark whose new run averaged over a different
// iteration count than the base is listed as not comparable and never
// gated: its one-off warm-up weighs differently at each count. By
// default the report is advisory (exit 0); with -strict a regression, or
// a benchmark missing from the new run or not comparable, exits 1. IO
// and decode failures exit 2 in both modes.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	base := flag.String("base", "BENCH_engine.json", "baseline benchjson document")
	newPath := flag.String("new", "-", "fresh benchjson document (\"-\" = stdin)")
	threshold := flag.Float64("threshold", 25, "regression threshold in percent ns/op increase")
	minNs := flag.Float64("min-ns", 50000, "ignore regressions on benchmarks faster than this base ns/op")
	allocThreshold := flag.Float64("alloc-threshold", 25, "regression threshold in percent allocs/op increase")
	strict := flag.Bool("strict", false, "exit 1 on regression or missing benchmark (default: advisory)")
	flag.Parse()

	baseDoc, err := readDocument(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newDoc, err := readDocument(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	rep := compare(baseDoc, newDoc, *threshold, *minNs, *allocThreshold)
	if err := rep.write(os.Stdout, *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if *strict && (len(rep.regressions()) > 0 || len(rep.Missing) > 0 || len(rep.Incomparable) > 0) {
		os.Exit(1)
	}
}
