// Command benchjson converts `go test -bench` text output into a stable,
// machine-readable JSON document, so benchmark numbers — including the
// repo's custom metrics (speedup_x, obs_overhead_x, improvement factors)
// — can be committed, diffed and regressed against without scraping.
//
//	go test -run '^$' -bench=. -benchmem -benchtime=1x . | \
//	    go run ./internal/tools/benchjson -o BENCH_engine.json
//
// The output maps benchmark name → {iterations, ns_per_op, metrics},
// where metrics carries every additional `value unit` pair the benchmark
// reported (ReportMetric units as well as -benchmem's B/op and
// allocs/op). Names are normalized by stripping the trailing
// -GOMAXPROCS suffix so documents generated on different machines diff
// cleanly, and JSON object keys are emitted in sorted order (a property
// of encoding/json maps), making the document deterministic for a given
// set of measurements.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pimendure/internal/tools/benchfmt"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	doc, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
}
