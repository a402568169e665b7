// The shared per-benchmark sweep plan.
//
// Every strategy of a sweep simulates the same trace on the same array:
// the one-iteration write matrix, the flattened write-op list, the mask
// lane sets, the renamer cycle analysis and the trace statistics are all
// properties of (trace, rows, preset) alone — none depend on the mapping
// strategy, the seed, or the iteration count. Before this plan existed,
// each of the 18 pim.Run calls inside pim.Sweep recomputed all of them;
// now pim.Sweep builds one WearPlan and every strategy consumes it
// (pim.Run builds one on demand when called alone).
//
// The plan stores the write matrix M0 factorized the way the engines
// consume it:
//
//   - The full-mask part as one weight per logical row (FullRowWrites).
//     A full lane mask is invariant under every between-lane permutation
//     — B(all lanes) = all lanes — so this part of an epoch's
//     contribution never needs a per-lane scan at all: the software
//     engine accumulates a per-physical-row weight and expands it to
//     whole rows once per walker segment.
//   - The partial-mask remainder CSR-packed: per hot row, the nonzero
//     (lane, count) list instead of a dense Lanes-wide scan, so sparse
//     masks cost what they touch.
//
// M0[r][l] equals FullRowWrites[r] + the CSR row entries for (r, l); the
// two parts sum to exactly the dense matrix the pre-plan engine built per
// run (see planMatchesDense in plan_test.go).
package core

import (
	"fmt"

	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/program"
)

// WearPlan is the immutable per-benchmark precomputation shared by every
// strategy in a sweep: the factorized one-iteration write matrix, the
// flattened write-op list with mask lane sets (the +Hw replay inputs),
// the analytic renamer cycle, and the trace statistics. Build one with
// NewWearPlan and run any number of simulations against it concurrently
// — the precomputed inputs are never written after construction, and the
// only mutable state is the lock-guarded scratch arena (see arena.go)
// that recycles engine buffers across simulations.
type WearPlan struct {
	trace  *program.Trace
	rows   int
	preset bool
	stats  program.Stats

	// Software engine inputs: the one-iteration write matrix M0, split
	// into its between-permutation-invariant full-mask part (a weight per
	// logical row) and the CSR-packed partial-mask remainder.
	fullRowIdx []int32  // logical rows with full-mask writes
	fullRowW   []uint32 // summed writes per such row

	csrRows []int32  // logical rows with partial-mask writes
	csrPtr  []int32  // CSR offsets: row csrRows[i] owns entries [csrPtr[i], csrPtr[i+1])
	csrLane []int32  // lane of each entry
	csrCnt  []uint32 // writes of each entry

	// +Hw replay inputs: flattened write ops, per-mask lane sets, the
	// masks the write ops use split into full (landed rank-1) and partial
	// (scattered lane by lane), the full-mask row sequence, and the
	// analytic renamer cycle (valid only when the trace fits the renamer;
	// see hwCycleValid).
	ops          []wop
	maskLanes    [][]int
	fullMasks    []int32
	partMasks    []int32
	fullRows     []int32
	cycle        mapping.RenamerCycle
	hwCycleValid bool

	// Reusable engine scratch pooled on the plan (see arena.go); the one
	// field with interior mutability, guarded by its own mutex.
	arena arena
}

// NewWearPlan precomputes the shared simulation plan for one trace on a
// rows-deep array with the given output-preset policy. The work is
// O(trace size) and is recorded under the "core.simulate/plan" stage;
// pim.Sweep amortizes one plan over all 18 strategies.
func NewWearPlan(tr *program.Trace, rows int, preset bool) *WearPlan {
	sp := obs.StartSpan("core.simulate/plan")
	defer sp.End()
	p := &WearPlan{trace: tr, rows: rows, preset: preset}
	p.stats = tr.ComputeStats(preset)
	p.ops, p.maskLanes = flattenOps(tr, preset)

	// Factorized M0: dense staging over the trace's (small) logical row
	// footprint, compressed once.
	lanes := tr.Lanes
	fullW := make([]uint32, tr.LaneBits)
	partial := make([]uint32, tr.LaneBits*lanes)
	used := make([]bool, len(p.maskLanes))
	for _, op := range p.ops {
		if !used[op.mask] {
			used[op.mask] = true
			if op.full {
				p.fullMasks = append(p.fullMasks, op.mask)
			} else {
				p.partMasks = append(p.partMasks, op.mask)
			}
		}
		if op.full {
			fullW[op.row] += uint32(op.w)
			p.fullRows = append(p.fullRows, op.row)
			continue
		}
		base := int(op.row) * lanes
		for _, l := range p.maskLanes[op.mask] {
			partial[base+l] += uint32(op.w)
		}
	}
	for r := 0; r < tr.LaneBits; r++ {
		if fullW[r] != 0 {
			p.fullRowIdx = append(p.fullRowIdx, int32(r))
			p.fullRowW = append(p.fullRowW, fullW[r])
		}
		hot := false
		for l := 0; l < lanes; l++ {
			if c := partial[r*lanes+l]; c != 0 {
				if !hot {
					hot = true
					p.csrRows = append(p.csrRows, int32(r))
					p.csrPtr = append(p.csrPtr, int32(len(p.csrLane)))
				}
				p.csrLane = append(p.csrLane, int32(l))
				p.csrCnt = append(p.csrCnt, c)
			}
		}
	}
	p.csrPtr = append(p.csrPtr, int32(len(p.csrLane)))

	// The renamer period is conjugation-invariant, so one trace-level
	// analysis serves every +Hw epoch of every strategy. It only makes
	// sense when the trace fits the renamer's architectural rows
	// (LaneBits ≤ rows−1); otherwise +Hw validation rejects the run
	// before the cycle is ever consulted.
	if rows >= 2 && tr.LaneBits <= rows-1 {
		p.cycle = mapping.AnalyzeRenamerCycle(rows, p.fullRows)
		p.hwCycleValid = true
	}
	return p
}

// Trace returns the trace the plan was built for.
func (p *WearPlan) Trace() *program.Trace { return p.trace }

// Rows returns the physical bit-address count the plan was built for.
func (p *WearPlan) Rows() int { return p.rows }

// PresetOutputs reports the output-preset policy the plan was built for.
func (p *WearPlan) PresetOutputs() bool { return p.preset }

// Stats returns the trace statistics (steps, utilization, cell traffic)
// computed once at plan-build time.
func (p *WearPlan) Stats() program.Stats { return p.stats }

// Cycle returns the analytic renamer cycle of one trace iteration, and
// whether it is valid for this plan's row count (false when the trace
// does not fit the renamer's architectural rows).
func (p *WearPlan) Cycle() (mapping.RenamerCycle, bool) { return p.cycle, p.hwCycleValid }

// FullRowWrites returns the between-invariant part of the one-iteration
// write matrix: parallel slices of logical rows receiving full-mask
// writes and the summed per-lane write count of each.
func (p *WearPlan) FullRowWrites() (rows []int32, writes []uint32) {
	return p.fullRowIdx, p.fullRowW
}

// PartialEntries returns the number of nonzero (row, lane) entries in the
// CSR-packed partial-mask part of the write matrix.
func (p *WearPlan) PartialEntries() int { return len(p.csrLane) }

// M0 materializes the dense one-iteration write matrix [row*Lanes+lane]
// from the factorized plan — the matrix the pre-plan software engine
// rebuilt on every run. It is exported for cross-validation; the engines
// never call it.
func (p *WearPlan) M0() []uint32 {
	lanes := p.trace.Lanes
	m0 := make([]uint32, p.trace.LaneBits*lanes)
	for i, r := range p.fullRowIdx {
		base := int(r) * lanes
		for l := 0; l < lanes; l++ {
			m0[base+l] += p.fullRowW[i]
		}
	}
	for i, r := range p.csrRows {
		base := int(r) * lanes
		for e := p.csrPtr[i]; e < p.csrPtr[i+1]; e++ {
			m0[base+int(p.csrLane[e])] += p.csrCnt[e]
		}
	}
	return m0
}

// check validates a simulation config against the plan's trace and
// verifies it is compatible with the plan's build parameters.
func (p *WearPlan) check(cfg SimConfig, hw bool) error {
	if err := cfg.Validate(p.trace, hw); err != nil {
		return err
	}
	if cfg.Rows != p.rows || cfg.PresetOutputs != p.preset {
		return fmt.Errorf("core: wear plan built for rows=%d preset=%v, config has rows=%d preset=%v",
			p.rows, p.preset, cfg.Rows, cfg.PresetOutputs)
	}
	return nil
}

// Simulate runs one load-balancing configuration against the shared
// plan — core.Simulate with the per-benchmark precomputation factored
// out, so a sweep pays for it once. Results are bit-identical to
// Simulate (and SimulateReference) for every worker count and sampling
// cadence. The returned distribution's counts buffer is drawn from the
// plan's arena; callers that are done with it may hand it back with
// WriteDist.Release to make the next simulation allocation-free.
func (p *WearPlan) Simulate(cfg SimConfig, strat StrategyConfig) (*WriteDist, error) {
	if err := p.check(cfg, strat.Hw); err != nil {
		return nil, err
	}
	sp := obs.StartSpan("core.simulate")
	defer sp.End()
	dist := p.newDist()
	dist.Iterations = cfg.Iterations
	dist.StepsPerIteration = p.stats.Steps
	if cfg.Sampler != nil {
		cfg.Sampler.bind(cfg.Iterations)
	}
	p.walk(cfg, cfg.schedule(p.trace.Lanes, strat), strat.Hw, dist)
	if obs.Enabled() {
		obsWrites.Add(int64(dist.Total()))
	}
	return dist, nil
}
