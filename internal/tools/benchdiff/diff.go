package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"pimendure/internal/tools/benchfmt"
)

// readDocument loads a benchjson document from a file, or from stdin
// when path is "-".
func readDocument(path string) (*benchfmt.Document, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var doc benchfmt.Document
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// minGatedAllocs is the smallest base allocs/op the allocation gate acts
// on: below it a handful of pool-timing-dependent allocations swings the
// percentage wildly, so small-footprint benchmarks are reported but never
// gated — the timing gate's min-ns guard, applied to allocations.
const minGatedAllocs = 64

// delta is one benchmark's base-vs-new comparison.
type delta struct {
	Name      string
	BaseNs    float64
	NewNs     float64
	Percent   float64 // (new-base)/base × 100; positive = slower
	Regressed bool

	// Allocation comparison, populated when both documents carry a
	// -benchmem allocs/op metric for the benchmark.
	HasAllocs      bool
	BaseAllocs     float64
	NewAllocs      float64
	AllocPercent   float64 // (new-base)/base × 100; positive = more allocations
	AllocRegressed bool
}

// report is the outcome of comparing two documents.
type report struct {
	// Deltas covers benchmarks present in both documents with a non-zero
	// base timing, sorted by percent change, worst first.
	Deltas []delta
	// Missing names benchmarks in base that the new document lacks —
	// a silently dropped benchmark must not read as "no regression".
	Missing []string
	// Added names benchmarks only the new document has.
	Added []string
	// Incomparable lists benchmarks whose new run averaged over a
	// different iteration count than the base: a per-op figure carries
	// its one-off warm-up differently at each count, so such a pair is
	// never compared and never a regression.
	Incomparable []incomparable
}

// incomparable is a benchmark present in both documents at different
// iteration counts.
type incomparable struct {
	Name                string
	BaseIters, NewIters int64
}

// regressions returns the deltas that crossed either the timing or the
// allocation threshold.
func (r report) regressions() []delta {
	var out []delta
	for _, d := range r.Deltas {
		if d.Regressed || d.AllocRegressed {
			out = append(out, d)
		}
	}
	return out
}

// compare diffs new against base. Only benchmarks measured over the same
// iteration count in both documents are compared; the rest are listed as
// incomparable. A benchmark regresses when it is slower by more than
// thresholdPct percent AND its base timing is at least minNs nanoseconds
// — sub-minNs benchmarks are noise-dominated at -benchtime=1x and only
// ever reported, never gated on. Benchmarks with a -benchmem allocs/op
// metric in both documents are additionally gated on allocation growth
// beyond allocThresholdPct percent (bases under minGatedAllocs are
// report-only, as with minNs).
func compare(base, new *benchfmt.Document, thresholdPct, minNs, allocThresholdPct float64) report {
	var rep report
	for name, b := range base.Benchmarks {
		n, ok := new.Benchmarks[name]
		if !ok {
			rep.Missing = append(rep.Missing, name)
			continue
		}
		if n.Iterations != b.Iterations {
			rep.Incomparable = append(rep.Incomparable, incomparable{name, b.Iterations, n.Iterations})
			continue
		}
		if b.NsPerOp <= 0 {
			continue
		}
		pct := (n.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		d := delta{
			Name:      name,
			BaseNs:    b.NsPerOp,
			NewNs:     n.NsPerOp,
			Percent:   pct,
			Regressed: pct > thresholdPct && b.NsPerOp >= minNs,
		}
		ba, bok := b.Metrics["allocs/op"]
		na, nok := n.Metrics["allocs/op"]
		if bok && nok && ba > 0 {
			d.HasAllocs = true
			d.BaseAllocs, d.NewAllocs = ba, na
			d.AllocPercent = (na - ba) / ba * 100
			d.AllocRegressed = d.AllocPercent > allocThresholdPct && ba >= minGatedAllocs
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	for name := range new.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			rep.Added = append(rep.Added, name)
		}
	}
	sort.Slice(rep.Deltas, func(i, j int) bool { return rep.Deltas[i].Percent > rep.Deltas[j].Percent })
	sort.Strings(rep.Missing)
	sort.Strings(rep.Added)
	sort.Slice(rep.Incomparable, func(i, j int) bool { return rep.Incomparable[i].Name < rep.Incomparable[j].Name })
	return rep
}

// write renders the report as an aligned table.
func (r report) write(w io.Writer, thresholdPct float64) error {
	if _, err := fmt.Fprintf(w, "%-60s %14s %14s %9s %11s\n", "benchmark", "base ns/op", "new ns/op", "delta", "allocs"); err != nil {
		return err
	}
	for _, d := range r.Deltas {
		allocs := ""
		if d.HasAllocs {
			allocs = fmt.Sprintf(" %+10.1f%%", d.AllocPercent)
		}
		mark := ""
		if d.Regressed {
			mark = "  REGRESSION"
		}
		if d.AllocRegressed {
			mark += "  ALLOC-REGRESSION"
		}
		if _, err := fmt.Fprintf(w, "%-60s %14.0f %14.0f %+8.1f%%%s%s\n",
			d.Name, d.BaseNs, d.NewNs, d.Percent, allocs, mark); err != nil {
			return err
		}
	}
	for _, name := range r.Missing {
		if _, err := fmt.Fprintf(w, "%-60s missing from new run\n", name); err != nil {
			return err
		}
	}
	for _, name := range r.Added {
		if _, err := fmt.Fprintf(w, "%-60s new benchmark (no baseline)\n", name); err != nil {
			return err
		}
	}
	for _, c := range r.Incomparable {
		if _, err := fmt.Fprintf(w, "%-60s not comparable: %d iterations, base %d\n", c.Name, c.NewIters, c.BaseIters); err != nil {
			return err
		}
	}
	if n := len(r.Incomparable); n > 0 {
		if _, err := fmt.Fprintf(w, "%d benchmark(s) not compared: iteration counts differ from the base (rerun at its -benchtime)\n", n); err != nil {
			return err
		}
	}
	if n := len(r.regressions()); n > 0 {
		_, err := fmt.Fprintf(w, "%d benchmark(s) regressed more than %.0f%%\n", n, thresholdPct)
		return err
	}
	_, err := fmt.Fprintf(w, "no regressions beyond %.0f%%\n", thresholdPct)
	return err
}
