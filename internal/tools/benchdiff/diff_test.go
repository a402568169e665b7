package main

import (
	"bytes"
	"strings"
	"testing"

	"pimendure/internal/tools/benchfmt"
)

func doc(benches map[string]float64) *benchfmt.Document {
	d := &benchfmt.Document{Benchmarks: map[string]benchfmt.Result{}}
	for name, ns := range benches {
		d.Benchmarks[name] = benchfmt.Result{Iterations: 1, NsPerOp: ns}
	}
	return d
}

// A document compared against itself is clean, whatever the threshold.
func TestCompareSelfClean(t *testing.T) {
	d := doc(map[string]float64{"BenchmarkA": 1e6, "BenchmarkB": 2e5})
	rep := compare(d, d, 25, 50000, 25)
	if len(rep.regressions()) != 0 || len(rep.Missing) != 0 || len(rep.Added) != 0 {
		t.Errorf("self-compare not clean: %+v", rep)
	}
	if len(rep.Deltas) != 2 {
		t.Errorf("got %d deltas, want 2", len(rep.Deltas))
	}
	for _, d := range rep.Deltas {
		if d.Percent != 0 {
			t.Errorf("%s: self delta %v%%", d.Name, d.Percent)
		}
	}
}

// A synthetic 2× slowdown must be flagged; improvements and sub-threshold
// drift must not.
func TestCompareFlagsRegression(t *testing.T) {
	base := doc(map[string]float64{
		"BenchmarkSlow":  1e6,
		"BenchmarkDrift": 1e6,
		"BenchmarkFast":  1e6,
	})
	fresh := doc(map[string]float64{
		"BenchmarkSlow":  2e6,   // 2×: regression
		"BenchmarkDrift": 1.1e6, // +10%: under the 25% gate
		"BenchmarkFast":  5e5,   // improvement
	})
	rep := compare(base, fresh, 25, 50000, 25)
	regs := rep.regressions()
	if len(regs) != 1 || regs[0].Name != "BenchmarkSlow" {
		t.Fatalf("regressions = %+v, want only BenchmarkSlow", regs)
	}
	if regs[0].Percent != 100 {
		t.Errorf("2x slowdown reported as %+.1f%%, want +100%%", regs[0].Percent)
	}
	// Worst first.
	if rep.Deltas[0].Name != "BenchmarkSlow" || rep.Deltas[len(rep.Deltas)-1].Name != "BenchmarkFast" {
		t.Errorf("deltas not sorted worst-first: %+v", rep.Deltas)
	}
}

// Benchmarks faster than -min-ns never gate: at -benchtime=1x their
// timings are noise.
func TestCompareMinNsFilter(t *testing.T) {
	base := doc(map[string]float64{"BenchmarkTiny": 1000})
	fresh := doc(map[string]float64{"BenchmarkTiny": 5000}) // 5× but tiny
	rep := compare(base, fresh, 25, 50000, 25)
	if len(rep.regressions()) != 0 {
		t.Errorf("sub-min-ns benchmark gated: %+v", rep.regressions())
	}
	if len(rep.Deltas) != 1 || rep.Deltas[0].Percent != 400 {
		t.Errorf("delta still reported: %+v", rep.Deltas)
	}
}

// Dropped and new benchmarks are surfaced by name.
func TestCompareMissingAndAdded(t *testing.T) {
	base := doc(map[string]float64{"BenchmarkGone": 1e6, "BenchmarkKept": 1e6})
	fresh := doc(map[string]float64{"BenchmarkKept": 1e6, "BenchmarkNew": 1e6})
	rep := compare(base, fresh, 25, 50000, 25)
	if len(rep.Missing) != 1 || rep.Missing[0] != "BenchmarkGone" {
		t.Errorf("missing = %v", rep.Missing)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "BenchmarkNew" {
		t.Errorf("added = %v", rep.Added)
	}
}

// The committed snapshot must load and self-compare clean — the exact
// invocation `make ci` runs in advisory mode.
func TestCommittedBaselineSelfCompare(t *testing.T) {
	d, err := readDocument("../../../BENCH_engine.json")
	if err != nil {
		t.Fatalf("committed baseline unreadable: %v", err)
	}
	if len(d.Benchmarks) == 0 {
		t.Fatal("committed baseline has no benchmarks")
	}
	rep := compare(d, d, 25, 50000, 25)
	if n := len(rep.regressions()); n != 0 {
		t.Errorf("baseline self-compare reports %d regressions", n)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf, 25); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no regressions beyond 25%") {
		t.Errorf("report footer missing:\n%s", buf.String())
	}
}

// allocDoc builds a document with ns/op and allocs/op per benchmark.
func allocDoc(benches map[string][2]float64) *benchfmt.Document {
	d := &benchfmt.Document{Benchmarks: map[string]benchfmt.Result{}}
	for name, v := range benches {
		d.Benchmarks[name] = benchfmt.Result{
			Iterations: 1, NsPerOp: v[0],
			Metrics: map[string]float64{"allocs/op": v[1]},
		}
	}
	return d
}

// Allocation growth beyond the threshold gates even when timing is flat;
// sub-minGatedAllocs bases and alloc-free drift never do.
func TestCompareFlagsAllocRegression(t *testing.T) {
	base := allocDoc(map[string][2]float64{
		"BenchmarkBloat": {1e6, 1000},
		"BenchmarkDrift": {1e6, 1000},
		"BenchmarkTiny":  {1e6, 8},
	})
	fresh := allocDoc(map[string][2]float64{
		"BenchmarkBloat": {1e6, 2000}, // 2× allocations at flat timing
		"BenchmarkDrift": {1e6, 1100}, // +10%: under the 25% gate
		"BenchmarkTiny":  {1e6, 40},   // 5× but under minGatedAllocs
	})
	rep := compare(base, fresh, 25, 50000, 25)
	regs := rep.regressions()
	if len(regs) != 1 || regs[0].Name != "BenchmarkBloat" {
		t.Fatalf("regressions = %+v, want only BenchmarkBloat", regs)
	}
	if !regs[0].AllocRegressed || regs[0].Regressed {
		t.Errorf("BenchmarkBloat should gate on allocations only: %+v", regs[0])
	}
	if regs[0].AllocPercent != 100 {
		t.Errorf("2x allocation growth reported as %+.1f%%, want +100%%", regs[0].AllocPercent)
	}
	var buf bytes.Buffer
	if err := rep.write(&buf, 25); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ALLOC-REGRESSION") {
		t.Errorf("report does not mark the allocation regression:\n%s", buf.String())
	}
}

// Documents without -benchmem metrics (the pre-gate snapshot shape)
// still compare cleanly on timing alone.
func TestCompareNoAllocMetrics(t *testing.T) {
	d := doc(map[string]float64{"BenchmarkA": 1e6})
	rep := compare(d, d, 25, 50000, 25)
	if len(rep.regressions()) != 0 || rep.Deltas[0].HasAllocs {
		t.Errorf("metric-free compare not clean: %+v", rep.Deltas)
	}
}

// The report marks regressed rows so the advisory output reads at a
// glance.
func TestReportMarksRegressions(t *testing.T) {
	base := doc(map[string]float64{"BenchmarkSlow": 1e6})
	fresh := doc(map[string]float64{"BenchmarkSlow": 2e6})
	rep := compare(base, fresh, 25, 50000, 25)
	var buf bytes.Buffer
	if err := rep.write(&buf, 25); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "1 benchmark(s) regressed") {
		t.Errorf("report does not mark the regression:\n%s", out)
	}
}

// An entry measured over a different iteration count than the base is
// listed as not comparable, never as a regression, however far its
// per-op figures moved; entries at the base's count still gate.
func TestCompareRefusesIterationMismatch(t *testing.T) {
	base := allocDoc(map[string][2]float64{
		"BenchmarkWarm": {1e6, 400},
		"BenchmarkSlow": {1e6, 400},
	})
	fresh := allocDoc(map[string][2]float64{
		"BenchmarkWarm": {3e6, 800}, // 3× slower, 2× allocations, but 1 iteration against 5
		"BenchmarkSlow": {3e6, 400},
	})
	for _, name := range []string{"BenchmarkWarm", "BenchmarkSlow"} {
		r := base.Benchmarks[name]
		r.Iterations = 5
		base.Benchmarks[name] = r
	}
	r := fresh.Benchmarks["BenchmarkSlow"]
	r.Iterations = 5
	fresh.Benchmarks["BenchmarkSlow"] = r

	rep := compare(base, fresh, 25, 50000, 25)
	if len(rep.Incomparable) != 1 || rep.Incomparable[0] != (incomparable{"BenchmarkWarm", 5, 1}) {
		t.Errorf("incomparable = %+v, want BenchmarkWarm at 5 vs 1 iterations", rep.Incomparable)
	}
	regs := rep.regressions()
	if len(regs) != 1 || regs[0].Name != "BenchmarkSlow" {
		t.Errorf("regressions = %+v, want only BenchmarkSlow", regs)
	}
	for _, d := range rep.Deltas {
		if d.Name == "BenchmarkWarm" {
			t.Errorf("an iteration-count mismatch was compared: %+v", d)
		}
	}
	var buf bytes.Buffer
	if err := rep.write(&buf, 25); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "BenchmarkWarm") || !strings.Contains(out, "not comparable: 1 iterations, base 5") ||
		!strings.Contains(out, "1 benchmark(s) not compared") || !strings.Contains(out, "1 benchmark(s) regressed") {
		t.Errorf("report does not list the mismatch apart from the regression:\n%s", out)
	}
}
