// Command bench is the repository's end-to-end benchmark. It runs one of
// four workloads for a fixed time, checks every output it produces, and
// prints each metric by name and unit, ending with one JSON result line.
// Run it from the repository root:
//
//	bash bench/run.sh -workload sw_suite -seed 1            # end-to-end metrics
//	bash bench/run.sh -workload sw_suite -seed 1 -trace 1   # per-layer metrics
//	bash bench/run.sh -workload all -seed 1                 # every workload
//	bash bench/run.sh -compare a.jsonl b.jsonl              # two sets of runs
//
// The workloads, metrics and bounds are listed in BENCHMARK.json and
// explained in bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"fig17_paper", "sw_suite", "fleet_study", "serve_mix"}

// runCfg is one run's settings, shared by every workload.
type runCfg struct {
	root    string
	out     string // directory for result, trace and layer files
	seed    int64
	seconds int
	trace   bool
	golden  *golden
}

// outcome is what a workload measured, before it becomes a result line.
type outcome struct {
	attempted, failed int
	errs              []string
	values            map[string]float64
	params            map[string]any
}

// fail counts one failed operation and reports it on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	msg := fmt.Sprintf(format, args...)
	o.errs = append(o.errs, msg)
	fmt.Fprintln(os.Stderr, "bench: FAIL:", msg)
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long one run measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	record := fs.String("record", "", "append the run's result and context as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two files of recorded runs, given as arguments")
	writeGolden := fs.Bool("write-golden", false, "regenerate bench/golden/seed1.json from the current engines")
	calibrate := fs.Bool("calibrate", false, "measure serve_mix capacity and print the rates and latency limit to freeze")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two record files")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cfg := &runCfg{
		root:    root,
		out:     filepath.Join(root, "bench", "out"),
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *writeGolden:
		return writeGoldenMain(cfg)
	case *calibrate:
		return calibrateMain(cfg)
	case *workload == "all":
		return runAll(cfg, *record)
	}
	if cfg.golden, err = loadGolden(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return runOne(cfg, *workload, *record)
}

// runOne runs a single workload in this process and prints its result.
func runOne(cfg *runCfg, name, record string) int {
	var oc *outcome
	var err error
	switch name {
	case "serve_mix":
		if cfg.trace {
			oc, err = runServeTraced(cfg)
		} else {
			oc, err = runServe(cfg)
		}
	default:
		w := findBatch(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s, or all)\n", name, strings.Join(workloadNames, ", "))
			return 2
		}
		if cfg.trace {
			oc, err = w.runTraced(cfg)
		} else {
			oc, err = w.run(cfg)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}

	defs := e2eMetrics
	if cfg.trace {
		defs = layerMetrics
	} else {
		oc.values["peak_rss_mb"] = peakRSSMB()
	}
	res := result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed}
	if oc.attempted == 0 {
		res.Correct = false
		oc.errs = append(oc.errs, "no operation was attempted")
	}
	var missing []string
	res.Metrics, missing = fill(defs, oc.values)
	if res.Correct && len(missing) > 0 {
		// A run that failed has no timings to report; a run that passed
		// and still lacks a metric is a bug in the workload.
		fmt.Fprintf(os.Stderr, "bench: %s did not measure %s\n", name, strings.Join(missing, ", "))
		return 1
	}

	ctx := newRunContext(cfg.root, name, cfg.seed, cfg.seconds, cfg.trace, oc.params)
	printMetrics(os.Stdout, name, defs, res)
	suffix := ""
	if cfg.trace {
		suffix = "_trace"
	}
	file := filepath.Join(cfg.out, fmt.Sprintf("result_%s_seed%d%s.json", name, cfg.seed, suffix))
	rec := runRecord{Workload: name, Context: ctx, Result: res, Errors: oc.errs}
	if err := writeJSON(file, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if record != "" {
		if err := appendRecord(record, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func findBatch(name string) *batchWorkload {
	for _, w := range batchWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runRecord is one run as kept in result files and -record files.
type runRecord struct {
	Workload string     `json:"workload"`
	Context  runContext `json:"context"`
	Result   result     `json:"result"`
	Errors   []string   `json:"errors,omitempty"`
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printMetrics(w io.Writer, workload string, defs []metricDef, res result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-28s %16s %s\n", d.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		}
	}
}

// runAll runs every workload, each in a fresh child process of this
// binary, so set-up time and peak memory belong to that workload alone.
func runAll(cfg *runCfg, record string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	trace := "0"
	defs := e2eMetrics
	if cfg.trace {
		trace, defs = "1", layerMetrics
	}
	results := map[string]*result{}
	code := 0
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(cfg.seconds), "-trace", trace}
		if record != "" {
			args = append(args, "-record", record)
		}
		cmd := exec.Command(exe, args...)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			code = 1
		}
		if res, err := lastResult(buf.Bytes()); err == nil {
			results[name] = res
		}
	}
	fmt.Println()
	fmt.Printf("%-28s", "metric")
	for _, name := range workloadNames {
		fmt.Printf(" %14s", name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-28s", d.Name+" ("+d.Unit+")")
		for _, name := range workloadNames {
			cell := "-"
			if res := results[name]; res != nil {
				if m, ok := res.Metrics[d.Name]; ok {
					cell = strconv.FormatFloat(m.Value, 'g', 6, 64)
				}
			}
			fmt.Printf(" %14s", cell)
		}
		fmt.Println()
	}
	return code
}

// lastResult parses the result line a run prints last.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// writeGoldenMain runs every batch workload's outputs at seed 1 and
// writes them as the golden file later runs are checked against.
func writeGoldenMain(cfg *runCfg) int {
	const seed = 1
	g := golden{Seed: seed, Sims: map[string]simSum{}, Fleet: map[string][]float64{}}
	for _, w := range batchWorkloads {
		st, err := w.setup(nil, -1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		out, err := w.pass(st, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		sums, err := w.check(nil, st, seed, out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for k, v := range sums.sims {
			g.Sims[k] = v
		}
		for k, v := range sums.fleet {
			g.Fleet[k] = v
		}
		fmt.Printf("%s: %d distributions, %d fleet points\n", w.name, len(sums.sims), len(sums.fleet))
	}
	path := filepath.Join(cfg.root, "bench", "golden", "seed1.json")
	if err := writeJSON(path, g); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("wrote %s (%d distributions, %d fleet points)\n", path, len(g.Sims), len(g.Fleet))
	return 0
}
