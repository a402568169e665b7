// Package faults models operation of PIM arrays with failed cells (§3.3):
// because parallel lanes must keep operands at identical bit addresses, a
// single failed cell makes its bit address unusable in every lane (Fig.
// 11a), so usable lane capacity collapses rapidly as cells die (Fig. 11b).
// The lane-set partitioning workaround — using subsets of lanes
// sequentially so a failure only poisons its own set — trades latency for
// capacity.
//
// Both analyses place a fixed number of failed cells uniformly at random
// without replacement, and both report exact expectations, not samples:
// the chance that a group of cells escapes every failure is
// hypergeometric (noneFailed).
package faults

import (
	"fmt"
	"math"
)

// UsableFractionExpected is the paper's closed form behind Fig. 11b: with
// each cell failed independently with probability f, a given bit address
// survives only if none of the `lanes` cells holding it failed, so the
// expected usable fraction of each lane is (1−f)^lanes. UsableCurve gives
// the exact value for a fixed failure count next to it.
func UsableFractionExpected(lanes int, failedFrac float64) float64 {
	if failedFrac <= 0 {
		return 1
	}
	if failedFrac >= 1 {
		return 0
	}
	return math.Pow(1-failedFrac, float64(lanes))
}

// noneFailed returns the chance that a given group of g cells holds none
// of k failures placed uniformly at random without replacement among n
// cells, C(n−g, k)/C(n, k) = C(n−k, g)/C(n, g). By linearity of
// expectation it is also the expected fraction of a partition's g-cell
// groups that no failure touches. It multiplies min(g, k) ratios, so it
// is exactly 1 for k = 0 and exactly 0 once k > n−g.
func noneFailed(n, g, k int) float64 {
	if g+k > n {
		return 0
	}
	if g > k {
		g, k = k, g
	}
	p := 1.0
	for i := 0; i < g; i++ {
		p *= float64(n-k-i) / float64(n-i)
	}
	return p
}

// CurvePoint is one point of the Fig. 11b series.
type CurvePoint struct {
	FailedFrac   float64 // fraction of the array's cells failed
	UsableExact  float64 // expected usable fraction of each lane, exact
	UsableClosed float64 // the paper's (1−f)^lanes
}

// UsableCurve computes usable-vs-failed for a rows×lanes array,
// reproducing Fig. 11b. failedFracs are fractions of the whole array's
// cells; each point places round(f·rows·lanes) failed cells, and a bit
// address (a row of `lanes` cells) is usable when none of them failed.
func UsableCurve(rows, lanes int, failedFracs []float64) ([]CurvePoint, error) {
	if rows <= 0 || lanes <= 0 {
		return nil, fmt.Errorf("faults: invalid array %dx%d", rows, lanes)
	}
	cells := rows * lanes
	out := make([]CurvePoint, 0, len(failedFracs))
	for _, f := range failedFracs {
		if !(f >= 0 && f <= 1) {
			return nil, fmt.Errorf("faults: failed fraction %v outside [0,1]", f)
		}
		k := int(math.Round(f * float64(cells)))
		out = append(out, CurvePoint{
			FailedFrac:   f,
			UsableExact:  noneFailed(cells, lanes, k),
			UsableClosed: UsableFractionExpected(lanes, f),
		})
	}
	return out, nil
}

// LaneSetResult quantifies the §3.3 workaround of splitting an array's
// lanes into sets that run sequentially.
type LaneSetResult struct {
	Sets int
	// UsableFrac is the expected usable fraction of bit addresses within
	// one set: a failure now only poisons the lanes of its own set.
	UsableFrac float64
	// LatencyFactor is the serialization cost: sets run one after
	// another.
	LatencyFactor int
	// EffectiveCapacity is UsableFrac / LatencyFactor — usable work per
	// unit time relative to a pristine unpartitioned array.
	EffectiveCapacity float64
}

// LaneSets evaluates splitting the lanes into `sets` equal groups under
// failedCells uniform random failures: a bit address of one set is
// usable when none of its lanes/sets cells failed.
func LaneSets(rows, lanes, sets, failedCells int) (LaneSetResult, error) {
	if sets <= 0 || lanes%sets != 0 {
		return LaneSetResult{}, fmt.Errorf("faults: %d lanes not divisible into %d sets", lanes, sets)
	}
	if rows <= 0 || lanes <= 0 {
		return LaneSetResult{}, fmt.Errorf("faults: invalid array %dx%d", rows, lanes)
	}
	cells := rows * lanes
	if failedCells < 0 || failedCells > cells {
		return LaneSetResult{}, fmt.Errorf("faults: %d failed cells outside [0, %d]", failedCells, cells)
	}
	frac := noneFailed(cells, lanes/sets, failedCells)
	return LaneSetResult{
		Sets:              sets,
		UsableFrac:        frac,
		LatencyFactor:     sets,
		EffectiveCapacity: frac / float64(sets),
	}, nil
}

// GracefulResult summarizes operation past the first cell failure when
// the system remaps dead bit addresses onto spare rows (§3.3 asks to what
// extent arrays remain functional with failed cells; this quantifies the
// remap-on-failure policy the paper's related work [42] applies to plain
// NVM).
type GracefulResult struct {
	// FirstFailureIters is when the first row dies (the paper's Eq. 4
	// array lifetime).
	FirstFailureIters float64
	// UnusableIters is when a row dies with no spare left — the program
	// no longer fits and the array is truly dead.
	UnusableIters float64
	// Remaps is how many row replacements happened in between.
	Remaps int
}

// ExtensionFactor is the lifetime gained by tolerating failures.
func (g GracefulResult) ExtensionFactor() float64 {
	if g.FirstFailureIters <= 0 {
		return math.NaN()
	}
	return g.UnusableIters / g.FirstFailureIters
}

// GracefulLifetime event-simulates remap-on-failure: the program occupies
// len(rowRates) logical rows, each wearing its current physical row at
// rowRates[i] hottest-cell writes per iteration; totalRows − len(rowRates)
// spare rows start unworn; when a physical row's cumulative hottest-cell
// writes reach endurance it dies and its logical row moves to a spare.
// Rows with zero rate never die. The simulation ends when a death finds no
// spare.
func GracefulLifetime(rowRates []float64, totalRows int, endurance float64) (GracefulResult, error) {
	if endurance <= 0 {
		return GracefulResult{}, fmt.Errorf("faults: non-positive endurance %v", endurance)
	}
	if len(rowRates) == 0 || len(rowRates) > totalRows {
		return GracefulResult{}, fmt.Errorf("faults: %d program rows do not fit %d physical rows",
			len(rowRates), totalRows)
	}
	anyWear := false
	for _, r := range rowRates {
		if r < 0 {
			return GracefulResult{}, fmt.Errorf("faults: negative write rate %v", r)
		}
		if r > 0 {
			anyWear = true
		}
	}
	if !anyWear {
		return GracefulResult{}, fmt.Errorf("faults: program writes nothing; lifetime unbounded")
	}

	remaining := make([]float64, len(rowRates))
	for i := range remaining {
		remaining[i] = endurance
	}
	spares := totalRows - len(rowRates)
	var res GracefulResult
	now := 0.0
	for {
		// Next death: argmin remaining/rate over wearing rows.
		next, dt := -1, math.Inf(1)
		for i, r := range rowRates {
			if r <= 0 {
				continue
			}
			if d := remaining[i] / r; d < dt {
				dt, next = d, i
			}
		}
		now += dt
		if res.FirstFailureIters == 0 {
			res.FirstFailureIters = now
		}
		for i, r := range rowRates {
			remaining[i] -= dt * r
		}
		if spares == 0 {
			res.UnusableIters = now
			return res, nil
		}
		spares--
		remaining[next] = endurance
		res.Remaps++
	}
}

// FailureTimeline maps a write distribution to the fraction of cells
// failed as iterations accumulate: cell c fails once iterations ×
// writesPerIteration(c) exceeds the endurance. It returns the failed
// fraction at each multiple of the distribution's accumulated iteration
// count given in `at` (e.g. at = {1e6, 1e7, …} iterations). counts must be
// the accumulated per-cell writes over `iterations` iterations.
func FailureTimeline(counts []uint64, iterations int, endurance float64, at []float64) []float64 {
	out := make([]float64, len(at))
	for i, iters := range at {
		failed := 0
		for _, c := range counts {
			perIter := float64(c) / float64(iterations)
			if perIter > 0 && perIter*iters >= endurance {
				failed++
			}
		}
		out[i] = float64(failed) / float64(len(counts))
	}
	return out
}
