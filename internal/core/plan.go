// The shared per-benchmark sweep plan.
//
// Every strategy of a sweep simulates the same trace on the same array:
// the one-iteration write matrix, the flattened write-op list, the mask
// lane sets and the trace statistics are all properties of (trace, rows,
// preset) alone — none depend on the mapping strategy, the seed, or the
// iteration count. Before this plan existed, each of the 18 pim.Run
// calls inside pim.Sweep recomputed all of them; now pim.Sweep builds one
// WearPlan and every strategy consumes it (pim.Run builds one on demand
// when called alone).
//
// The plan stores the one-iteration write matrix M0 once, as the sparse
// histogram the engines consume: one (mask, logical row, writes) cell per
// pair some write op touches. A cell stands for its writes on every lane
// of its mask, so the table is O(ops) however wide the masks are. A +Hw
// epoch's histogram has the same shape (the renamer's replay of its
// length, hw_engine.go), so the walker lands both kinds through one loop. M0,
// FullRowWrites and PartialEntries are derived views of the table, for
// cross-validation; M0[r][l] is the sum of the cells on row r whose mask
// holds lane l, exactly the dense matrix the pre-plan engine built per
// run (see planMatchesDense in plan_test.go).
package core

import (
	"fmt"

	"pimendure/internal/obs"
	"pimendure/internal/program"
)

// WearPlan is the immutable per-benchmark precomputation shared by every
// strategy in a sweep: the one-iteration write-matrix table, the
// flattened write-op list with mask lane sets (the +Hw replay inputs),
// and the trace statistics. Build one with NewWearPlan and run any
// number of simulations against it concurrently — the precomputed inputs
// are never written after construction, and the only mutable state is
// the lock-guarded scratch arena (see arena.go) that recycles engine
// buffers across simulations.
type WearPlan struct {
	trace  *program.Trace
	rows   int
	preset bool
	stats  program.Stats

	// The one-iteration write matrix, the software epochs' histogram base.
	sw histBase

	// Replay and landing inputs: flattened write ops, per-mask lane sets,
	// and the masks the write ops use split into full (landed rank-1) and
	// partial (scattered through sorted lane sets).
	ops       []wop
	maskLanes [][]int
	fullMasks []int32
	partMasks []int32

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

	// The write-matrix table: dense (mask, row) staging over the trace's
	// (small) logical row footprint, packed once.
	masks := len(p.maskLanes)
	staged := make([]uint64, masks*tr.LaneBits)
	used := make([]bool, masks)
	for _, op := range p.ops {
		if !used[op.mask] {
			used[op.mask] = true
			if op.full {
				p.fullMasks = append(p.fullMasks, op.mask)
			} else {
				p.partMasks = append(p.partMasks, op.mask)
			}
		}
		staged[int(op.mask)*tr.LaneBits+int(op.row)] += uint64(op.w)
	}
	p.sw = p.packHist(staged, tr.LaneBits)
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

// FullRowWrites returns the between-invariant part of the one-iteration
// write matrix: parallel slices of logical rows receiving full-mask
// writes, in ascending order, and the summed per-lane write count of
// each.
func (p *WearPlan) FullRowWrites() (rows []int32, writes []uint32) {
	perRow := make([]uint32, p.trace.LaneBits)
	for _, e := range p.sw.full {
		perRow[e.row] += uint32(e.c)
	}
	for r, w := range perRow {
		if w != 0 {
			rows = append(rows, int32(r))
			writes = append(writes, w)
		}
	}
	return rows, writes
}

// HasPartialMasks reports whether some write op of the trace writes
// through a mask that leaves out lanes. Without one, the between-lane
// map never reaches a distribution: X×St, X×Ra and X×Bs accumulate
// identical counts, software and +Hw (TestFullMaskTracesIgnoreBetweenMaps),
// so pim's sweeps and fleet studies simulate one of them per (within, +Hw).
func (p *WearPlan) HasPartialMasks() bool { return len(p.partMasks) > 0 }

// PartialEntries returns the number of (row, lane) cells of the
// one-iteration write matrix that receive partial-mask writes.
func (p *WearPlan) PartialEntries() int {
	lanes := p.trace.Lanes
	part := make([]bool, p.trace.LaneBits*lanes)
	n := 0
	for _, e := range p.sw.part {
		for _, l := range p.maskLanes[e.mask] {
			if c := int(e.row)*lanes + l; !part[c] {
				part[c] = true
				n++
			}
		}
	}
	return n
}

// M0 materializes the dense one-iteration write matrix [row*Lanes+lane]
// from the plan's table — the matrix the pre-plan software engine rebuilt
// on every run. It is exported for cross-validation; the engines never
// call it.
func (p *WearPlan) M0() []uint32 {
	lanes := p.trace.Lanes
	m0 := make([]uint32, p.trace.LaneBits*lanes)
	for _, cells := range [][]hcell{p.sw.full, p.sw.part} {
		for _, e := range cells {
			row := m0[int(e.row)*lanes:]
			for _, l := range p.maskLanes[e.mask] {
				row[l] += uint32(e.c)
			}
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
