package core

import (
	"pimendure/internal/mapping"
	"pimendure/internal/program"
)

// SimulateReference is the pre-memoization serial wear engine: every
// epoch of a +Hw run replays every op of every iteration, with no epoch
// grouping and no worker pool. It is retained as the ground truth the
// parallel engine must match bit for bit (alongside BruteForce) and as
// the baseline for the speedup benchmarks; production callers should use
// Simulate.
func SimulateReference(tr *program.Trace, cfg SimConfig, strat StrategyConfig) (*WriteDist, error) {
	if err := cfg.Validate(tr, strat.Hw); err != nil {
		return nil, err
	}
	dist := NewWriteDist(cfg.Rows, tr.Lanes)
	dist.Iterations = cfg.Iterations
	dist.StepsPerIteration = tr.Steps(cfg.PresetOutputs)

	sched := cfg.schedule(tr.Lanes, strat)
	if cfg.Sampler != nil {
		cfg.Sampler.bind(cfg.Iterations)
	}
	if strat.Hw {
		simulateHwReference(tr, cfg, sched, dist)
	} else {
		simulateSoftwareReference(tr, cfg, sched, dist)
	}
	return dist, nil
}

// simulateSoftwareReference is the pre-plan software engine: a dense
// per-epoch accumulation pass with no epoch grouping, no full-mask
// factorization and no worker pool. Each epoch adds epochLen·M0 permuted
// by that epoch's maps, rebuilding M0 from the trace on every call.
func simulateSoftwareReference(tr *program.Trace, cfg SimConfig, sched mapping.Schedule, dist *WriteDist) {
	lanes := tr.Lanes
	// One-iteration logical write matrix, factorized by mask then
	// materialized once over the trace's (small) logical row footprint.
	m0 := make([]uint32, tr.LaneBits*lanes)
	for _, op := range tr.Ops {
		w := op.WritesPerLane(cfg.PresetOutputs)
		if w == 0 {
			continue
		}
		row := int(op.Out)
		tr.Mask(op.Mask).ForEach(func(l int) {
			m0[row*lanes+l] += uint32(w)
		})
	}
	// Rows with any writes, to skip cold rows in the per-epoch pass.
	var hotRows []int
	for r := 0; r < tr.LaneBits; r++ {
		hot := false
		for l := 0; l < lanes; l++ {
			if m0[r*lanes+l] != 0 {
				hot = true
				break
			}
		}
		if hot {
			hotRows = append(hotRows, r)
		}
	}

	every := cfg.recompileEvery()
	totalEpochs := (cfg.Iterations + every - 1) / every
	for start, epoch := 0, 0; start < cfg.Iterations; start, epoch = start+every, epoch+1 {
		n := every
		if start+n > cfg.Iterations {
			n = cfg.Iterations - start
		}
		within := sched.EpochWithin(epoch)
		between := sched.EpochBetween(epoch)
		for _, r := range hotRows {
			pr := within.Apply(r)
			src := m0[r*lanes:]
			dst := dist.Counts[pr*lanes:]
			for l := 0; l < lanes; l++ {
				if c := src[l]; c != 0 {
					dst[between.Apply(l)] += uint64(c) * uint64(n)
				}
			}
		}
		if cfg.Sampler != nil && cfg.Sampler.due(epoch, totalEpochs-1) {
			cfg.Sampler.Sample(epoch, start+n, dist)
		}
	}
}

// simulateHwReference replays the hardware renamer exactly, epoch by
// epoch, with a fresh full replay per epoch.
func simulateHwReference(tr *program.Trace, cfg SimConfig, sched mapping.Schedule, dist *WriteDist) {
	lanes := tr.Lanes
	ops, maskLanes := flattenOps(tr, cfg.PresetOutputs)

	hw := mapping.NewHwRenamer(cfg.Rows)
	// hist[mask][physRow] accumulated over one epoch.
	hist := make([][]uint64, len(tr.Masks))
	for i := range hist {
		hist[i] = make([]uint64, cfg.Rows)
	}

	every := cfg.recompileEvery()
	totalEpochs := (cfg.Iterations + every - 1) / every
	for start, epoch := 0, 0; start < cfg.Iterations; start, epoch = start+every, epoch+1 {
		n := every
		if start+n > cfg.Iterations {
			n = cfg.Iterations - start
		}
		within := sched.EpochWithin(epoch)
		between := sched.EpochBetween(epoch)
		hw.Reset()
		for i := range hist {
			for r := range hist[i] {
				hist[i][r] = 0
			}
		}
		for it := 0; it < n; it++ {
			for _, op := range ops {
				arch := within.Apply(int(op.row))
				var phys int
				if op.full {
					phys = hw.RenameOnWrite(arch)
				} else {
					phys = hw.Lookup(arch)
				}
				hist[op.mask][phys] += uint64(op.w)
			}
		}
		for m := range hist {
			lanesOf := maskLanes[m]
			for r := 0; r < cfg.Rows; r++ {
				c := hist[m][r]
				if c == 0 {
					continue
				}
				dst := dist.Counts[r*lanes:]
				for _, l := range lanesOf {
					dst[between.Apply(l)] += c
				}
			}
		}
		if cfg.Sampler != nil && cfg.Sampler.due(epoch, totalEpochs-1) {
			cfg.Sampler.Sample(epoch, start+n, dist)
		}
	}
}
