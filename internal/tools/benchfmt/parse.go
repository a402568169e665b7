// Package benchfmt reads `go test -bench` text output into the
// benchjson document: benchmark name → {iterations, ns_per_op, metrics},
// plus the run's context headers. benchjson writes the document,
// benchdiff compares two of them, and abtest reads its runs' ns/op
// through the same parser.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Document is the JSON shape benchjson emits and benchdiff reads.
type Document struct {
	// Context captures the `key: value` header lines `go test -bench`
	// prints before the results (goos, goarch, pkg, cpu), plus gomaxprocs:
	// the -N suffix stripped from the result names (comma-separated when
	// the run used several -cpu values), so a document records the core
	// count its numbers were measured at.
	Context map[string]string `json:"context,omitempty"`
	// Benchmarks maps normalized benchmark name → result.
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Result is one benchmark's measurements.
type Result struct {
	// Iterations is the b.N the timing was averaged over.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline ns/op figure.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics carries every other `value unit` pair on the line:
	// -benchmem's B/op and allocs/op plus custom b.ReportMetric units
	// (speedup_x, obs_overhead_x, ...), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// normalizeName strips the -GOMAXPROCS suffix Go appends to benchmark
// names, so documents from machines with different core counts share
// keys, and returns the stripped count ("1" when there is no suffix: go
// test omits it at GOMAXPROCS=1).
func normalizeName(name string) (string, string) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, "1"
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name, "1"
	}
	return name[:i], name[i+1:]
}

// Parse consumes `go test -bench` text output and collects benchmark
// result lines and context headers. Unrecognized lines (PASS, ok, test
// log output) are ignored; a result line with an odd value/unit pairing
// or a value that is not a number is an error. A benchmark appearing more
// than once keeps its last measurement.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{Benchmarks: map[string]Result{}}
	setContext := func(k, v string) {
		if doc.Context == nil {
			doc.Context = map[string]string{}
		}
		doc.Context[k] = v
	}
	var procs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			name, n, res, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			if res != nil {
				doc.Benchmarks[name] = *res
				if !slices.Contains(procs, n) {
					procs = append(procs, n)
				}
			}
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			setContext(k, strings.TrimSpace(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(procs) > 0 {
		setContext("gomaxprocs", strings.Join(procs, ","))
	}
	return doc, nil
}

// parseBenchLine splits one result line:
//
//	BenchmarkName-8  20  123456 ns/op  28.84 speedup_x  16 B/op  2 allocs/op
//
// It returns the normalized name, the GOMAXPROCS the line was measured
// at, and the result — nil for lines that start with "Benchmark" but are
// not results (e.g. a bare name printed before a hung run).
func parseBenchLine(line string) (string, string, *Result, error) {
	f := strings.Fields(line)
	if len(f) < 3 {
		return "", "", nil, nil
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", "", nil, nil // "BenchmarkX ..." log output, not a result line
	}
	res := &Result{Iterations: n}
	if len(f)%2 != 0 {
		return "", "", nil, fmt.Errorf("malformed bench line (odd value/unit pairs): %q", line)
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", "", nil, fmt.Errorf("bad value %q in bench line %q", f[i], line)
		}
		unit := f[i+1]
		if unit == "ns/op" {
			res.NsPerOp = v
			continue
		}
		if res.Metrics == nil {
			res.Metrics = map[string]float64{}
		}
		res.Metrics[unit] = v
	}
	name, procs := normalizeName(f[0])
	return name, procs, res, nil
}
