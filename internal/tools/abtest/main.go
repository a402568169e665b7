// Command abtest measures this tree against a git revision in
// alternating pairs, so the host's drift falls on both sides alike.
//
// Benchmark mode runs the root package's `go test` benchmarks:
//
//	go run ./internal/tools/abtest -base HEAD~1 -bench 'BenchmarkHwEngine$' -pairs 10
//
// Workload mode runs one of the end-to-end workloads of bench/run.sh, for
// the run length bench/run.sh sets, and reads the -record file each run
// writes:
//
//	go run ./internal/tools/abtest -base HEAD~1 -workload fig17_paper -seed 11 -pairs 10
//
// Run it from the repository root (`make abtest` does). The revision is
// exported with `git archive` into a temporary directory, which is removed
// on exit; everything is built with the local toolchain. In benchmark mode
// both test binaries are built once with `go test -c`, and every run is
// one iteration of each benchmark (-benchtime=1x). Pair i runs the
// base side first when i is even and this tree first when it is odd.
//
// For each benchmark (its ns/op) or end-to-end metric it prints each
// side's median and quartiles, the median ratio this/base, the pairs this
// tree won, the change of the medians over the base side's interquartile
// range, and whether that change clears both thresholdPct percent and
// madK times the larger side's median absolute deviation (MAD). It exits
// 1 when any change that clears both is for the worse.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"

	"pimendure/internal/tools/benchfmt"
)

// A change of the medians counts only when it is over thresholdPct
// percent of the base median and over madK times the larger MAD.
const (
	thresholdPct = 5
	madK         = 3
)

func main() {
	base := flag.String("base", "HEAD", "git revision to compare this tree against")
	bench := flag.String("bench", "", "benchmark regex (`go test -bench`), for benchmark mode")
	workload := flag.String("workload", "", "bench/run.sh workload, for workload mode")
	seed := flag.Int("seed", 11, "workload seed, the same for every run")
	pairs := flag.Int("pairs", 10, "alternating pairs to run")
	flag.Parse()
	if (*bench == "") == (*workload == "") || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "abtest: give exactly one of -bench and -workload, and -pairs ≥ 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := run(ctx, config{
		base: *base, bench: *bench, workload: *workload, seed: *seed, pairs: *pairs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "abtest:", err)
		code = 1
	}
	stop()
	os.Exit(code)
}

type config struct {
	base, bench, workload string
	seed, pairs           int
}

// side is one tree under test: runOnce measures it once, returning a
// value per benchmark or metric.
type side struct {
	name    string
	runOnce func(ctx context.Context, i int) (map[string]float64, error)
}

func run(ctx context.Context, cfg config) (int, error) {
	head, err := os.Getwd()
	if err != nil {
		return 0, err
	}
	if _, err := os.Stat(filepath.Join(head, "go.mod")); err != nil {
		return 0, fmt.Errorf("run from the repository root: %w", err)
	}
	tmp, err := os.MkdirTemp("", "abtest-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)
	baseTree := filepath.Join(tmp, "src")
	if err := os.Mkdir(baseTree, 0o755); err != nil {
		return 0, err
	}
	export := exec.CommandContext(ctx, "sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", cfg.base, baseTree)
	if out, err := export.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("export %s: %v\n%s", cfg.base, err, out)
	}

	var sides [2]side
	lowerIsBetter := map[string]bool{}
	var order []string
	if cfg.bench != "" {
		for i, tree := range []string{baseTree, head} {
			if sides[i], err = benchSide(ctx, cfg, tree, filepath.Join(tmp, fmt.Sprintf("side%d.test", i))); err != nil {
				return 0, err
			}
		}
	} else {
		metrics, err := endToEndMetrics(head)
		if err != nil {
			return 0, err
		}
		for _, m := range metrics {
			order = append(order, m.Name)
			lowerIsBetter[m.Name] = m.Better == "lower"
		}
		for i, tree := range []string{baseTree, head} {
			sides[i] = workloadSide(cfg, tree, filepath.Join(tmp, fmt.Sprintf("side%d", i)))
		}
	}
	sides[0].name, sides[1].name = cfg.base, "this tree"

	var samples [2][]map[string]float64
	for i := 0; i < cfg.pairs; i++ {
		first := i % 2
		for _, s := range []int{first, 1 - first} {
			fmt.Fprintf(os.Stderr, "abtest: pair %d/%d: %s\n", i+1, cfg.pairs, sides[s].name)
			vals, err := sides[s].runOnce(ctx, i)
			if err != nil {
				return 0, fmt.Errorf("pair %d, %s: %w", i+1, sides[s].name, err)
			}
			samples[s] = append(samples[s], vals)
		}
	}
	if order == nil {
		for name := range samples[1][0] {
			order = append(order, name)
			lowerIsBetter[name] = true
		}
		sort.Strings(order)
	}
	fmt.Printf("base = %s, this tree = %s, %d pairs; a change clears when it is over %d%% and %d×MAD\n",
		cfg.base, head, cfg.pairs, thresholdPct, madK)
	fmt.Printf("%-44s %12s %25s %12s %25s %9s %6s %11s  %s\n",
		"name", "median base", "Q1..Q3 base", "median this", "Q1..Q3 this", "this/base", "won", "gap/IQRbase", "verdict")
	code := 0
	for _, name := range order {
		var b, h []float64
		for i := range samples[0] {
			vb, okb := samples[0][i][name]
			vh, okh := samples[1][i][name]
			if okb && okh {
				b, h = append(b, vb), append(h, vh)
			}
		}
		if len(b) == 0 {
			fmt.Printf("%-44s (not measured on both sides)\n", name)
			continue
		}
		c := compare(b, h, lowerIsBetter[name], thresholdPct, madK)
		fmt.Printf("%-44s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %9.4f %3d/%-2d %11.3g  %s\n",
			name, c.base.median, c.base.q1, c.base.q3, c.head.median, c.head.q1, c.head.q3,
			c.ratio, c.won, len(b), c.gapOverIQR, c.verdict)
		if c.verdict == "worse" {
			code = 1
		}
	}
	return code, nil
}

// benchSide builds tree's root-package test binary once and returns a
// side that runs its benchmarks in tree, reporting ns/op.
func benchSide(ctx context.Context, cfg config, tree, bin string) (side, error) {
	build := exec.CommandContext(ctx, "go", "-C", tree, "test", "-c", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		return side{}, fmt.Errorf("build the test binary in %s: %v\n%s", tree, err, out)
	}
	return side{runOnce: func(ctx context.Context, _ int) (map[string]float64, error) {
		cmd := exec.CommandContext(ctx, bin, "-test.run", "^$", "-test.bench", cfg.bench,
			"-test.benchtime", "1x", "-test.benchmem", "-test.timeout", "1h")
		cmd.Dir = tree
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("%v\n%s", err, out)
		}
		vals, err := nsPerOp(out)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("no benchmark matched %q", cfg.bench)
		}
		return vals, nil
	}}, nil
}

// nsPerOp returns the ns/op of every benchmark result line in `go test
// -bench` output, keyed by name without the -GOMAXPROCS suffix. A
// malformed result line is an error, as it is for benchjson.
func nsPerOp(out []byte) (map[string]float64, error) {
	doc, err := benchfmt.Parse(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	vals := make(map[string]float64, len(doc.Benchmarks))
	for name, r := range doc.Benchmarks {
		vals[name] = r.NsPerOp
	}
	return vals, nil
}

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

// endToEndMetrics reads the end-to-end metrics BENCHMARK.json declares.
func endToEndMetrics(root string) ([]metric, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf.EndToEnd, nil
}

// workloadSide returns a side that runs `bash bench/run.sh` in tree with
// -record, and reads the metrics of that run's record back. A run that
// reports itself incorrect is an error.
func workloadSide(cfg config, tree, prefix string) side {
	return side{runOnce: func(ctx context.Context, i int) (map[string]float64, error) {
		rec := fmt.Sprintf("%s-%d.jsonl", prefix, i)
		cmd := exec.CommandContext(ctx, "bash", "bench/run.sh", "-workload", cfg.workload,
			"-seed", strconv.Itoa(cfg.seed), "-record", rec)
		cmd.Dir = tree
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("%v\n%s", err, out)
		}
		f, err := os.Open(rec)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		if !sc.Scan() {
			return nil, fmt.Errorf("%s: empty record", rec)
		}
		var r struct {
			Result struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			} `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", rec, err)
		}
		if !r.Result.Correct {
			return nil, fmt.Errorf("%s: the run reports failed checks", rec)
		}
		vals := map[string]float64{}
		for name, m := range r.Result.Metrics {
			vals[name] = m.Value
		}
		return vals, nil
	}}
}
