// Package lifetime implements the paper's array lifetime model: Eq. 4
// (time to first cell failure given a write distribution), and the Eq. 1 /
// Eq. 2 perfectly-balanced upper bounds of §3.1.
//
// The model deliberately assumes identical endurance for every cell, which
// the paper notes is pessimistic (it is equivalent to using the mean of
// the real endurance distribution), and treats the first cell failure as
// the failure of the whole array, because even a few failed cells disrupt
// operation severely (§3.3). Endurance that varies across cells is
// internal/fleet's model, which the report's E18 table runs through
// pim.Fleet.
package lifetime

import (
	"fmt"
	"math"
)

// SecondsPerDay converts the model's seconds into the paper's headline
// unit.
const SecondsPerDay = 86400

// Model carries the two device scalars lifetime depends on.
type Model struct {
	// Endurance is writes-to-failure per cell (10¹² for the paper's MTJ
	// assumption).
	Endurance float64
	// StepSeconds is the device time per sequential array operation
	// (3 ns in the paper).
	StepSeconds float64
}

// Result is a lifetime estimate for a benchmark running back to back.
type Result struct {
	// IterationsToFailure is Endurance / max writes-per-iteration: how
	// many benchmark repetitions complete before the hottest cell dies.
	IterationsToFailure float64
	// Seconds = IterationsToFailure × iteration latency (Eq. 4).
	Seconds float64
}

// Days returns the lifetime in days.
func (r Result) Days() float64 { return r.Seconds / SecondsPerDay }

// String formats the estimate.
func (r Result) String() string {
	return fmt.Sprintf("%.3g iterations, %.3g days", r.IterationsToFailure, r.Days())
}

// Estimate applies Eq. 4: Lifetime = CellEndurance / max(WriteCount) ×
// ApplicationLatency, where maxWritesPerIteration is the hottest cell's
// writes per benchmark iteration and stepsPerIteration is the benchmark's
// sequential operation count.
func (m Model) Estimate(maxWritesPerIteration float64, stepsPerIteration int) (Result, error) {
	if m.Endurance <= 0 || m.StepSeconds <= 0 {
		return Result{}, fmt.Errorf("lifetime: non-positive model parameters %+v", m)
	}
	if maxWritesPerIteration <= 0 {
		return Result{}, fmt.Errorf("lifetime: benchmark writes no cells (max writes/iteration = %v)", maxWritesPerIteration)
	}
	if stepsPerIteration <= 0 {
		return Result{}, fmt.Errorf("lifetime: non-positive iteration latency %d", stepsPerIteration)
	}
	iters := m.Endurance / maxWritesPerIteration
	return Result{
		IterationsToFailure: iters,
		Seconds:             iters * float64(stepsPerIteration) * m.StepSeconds,
	}, nil
}

// ProjectIterations extrapolates a live wear sample to Eq. 4's
// iterations-to-failure: given the hottest cell's accumulated writes
// after some iterations, it assumes the current per-iteration wear rate
// holds and returns endurance / (maxWrites/iterations) — the quantity a
// telemetry sampler can report while a simulation is still running. It
// returns +Inf when nothing has been written yet (no wear, no failure)
// and NaN on non-positive iterations or endurance.
func ProjectIterations(maxWrites float64, iterations int64, endurance float64) float64 {
	if iterations <= 0 || endurance <= 0 {
		return math.NaN()
	}
	if maxWrites <= 0 {
		return math.Inf(1)
	}
	return endurance / (maxWrites / float64(iterations))
}

// Improvement returns how much longer a balanced configuration lives than
// a baseline with the same latency: maxBaseline / maxBalanced (Fig. 17's
// y-axis). It is NaN if either distribution is empty.
func Improvement(maxWritesBaseline, maxWritesBalanced float64) float64 {
	if maxWritesBaseline <= 0 || maxWritesBalanced <= 0 {
		return math.NaN()
	}
	return maxWritesBaseline / maxWritesBalanced
}

// UpperBoundOps is Eq. 1: the total number of operations an R×L array
// sustains under perfect load balancing, when each operation costs
// writesPerOp cell writes: R·L·Endurance / writesPerOp. For the paper's
// example (1024², 10¹², a 9 824-write multiplication) this is 1.07×10¹⁴.
func UpperBoundOps(rows, lanes int, endurance, writesPerOp float64) float64 {
	return float64(rows) * float64(lanes) * endurance / writesPerOp
}

// UpperBoundSeconds is Eq. 2: time to total break-down at full utilization
// — R·L·Endurance total writes consumed by `lanes` parallel lanes, each
// writing one cell per step: R·L·E / (lanes / step) seconds. For the
// paper's example (1024², 10¹², 3 ns) this is 3 072 000 s ≈ 35.56 days.
func UpperBoundSeconds(rows, lanes int, endurance, stepSeconds float64) float64 {
	writesPerSecond := float64(lanes) / stepSeconds
	return float64(rows) * float64(lanes) * endurance / writesPerSecond
}
