package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// readRecords reads a file of runs, one JSON record per line, as
// -record appends them.
func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric of one workload over the correct untraced
// runs of a set.
func values(recs []runRecord, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Context.Trace || !r.Result.Correct {
			continue
		}
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain compares two sets of runs for every end-to-end metric and
// workload: each set's median and quartiles, the change of B's median
// from A's, and a verdict against the metric's bound. It exits non-zero
// when any pair of medians differs by more than its bound, in either
// direction, or a pair cannot be compared.
func compareMain(a, b string) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ra, err := readRecords(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rb, err := readRecords(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("A = %s (%d runs), B = %s (%d runs)\n", a, len(ra), b, len(rb))
	fmt.Printf("%-12s %-12s %4s %12s %25s %4s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "nA", "median A", "Q1..Q3 A", "nB", "median B", "Q1..Q3 B", "B vs A", "bound", "verdict")
	code := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := values(ra, w.Name, m.Name), values(rb, w.Name, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Printf("%-12s %-12s %4d %12s %25s %4d  (need at least two correct runs in each set)\n", w.Name, m.Name, len(va), "", "", len(vb))
				code = 1
				continue
			}
			ma, mb := median(va), median(vb)
			q1a, _, q3a := quartiles(va)
			q1b, _, q3b := quartiles(vb)
			change := (mb - ma) / ma
			verdict := "ok"
			if math.Abs(change) > m.Bound {
				verdict = "differs"
				if (change > 0) == (m.Better == "lower") {
					verdict += " (B worse)"
				} else {
					verdict += " (B better)"
				}
				code = 1
			}
			fmt.Printf("%-12s %-12s %4d %12.5g %12.5g..%-12.5g %4d %12.5g %12.5g..%-12.5g %+8.2f%% %5.0f%%  %s\n",
				w.Name, m.Name, len(va), ma, q1a, q3a, len(vb), mb, q1b, q3b, 100*change, 100*m.Bound, verdict)
		}
	}
	return code
}
