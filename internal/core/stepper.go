// The incremental, epoch-granular wear engine.
//
// Simulate needs the whole iteration count up front; a scheduler that
// routes work by *live* wear (internal/system's wear-aware bank policy)
// needs the opposite — accumulate one recompile epoch at a time and ask
// "how hot is the hottest cell right now?" between epochs. Stepper is
// that engine: a serial walk over a shared WearPlan that lands each epoch
// through the same primitives as the walker (walk.go), so a stepped run
// is bit-identical to Simulate (and SimulateReference) over the same
// epoch sequence.
//
// Software and +Hw steps differ only in how the epoch's per-(mask,
// physical row) histogram is built:
//
//   - Software: the plan's write-matrix entries permuted by the epoch's
//     within-lane map, times the epoch length (addSwHist).
//   - +Hw: the epoch replayed in closed-cycle form (replayJobHist).
//     Consecutive epochs sharing a within-lane permutation and length
//     (St always, Bs at its rotation period) reuse the last replayed
//     histogram — a one-entry memo of the walker's replay jobs.
//
// Both then share one landing-and-tracking path: the full-mask rows land
// as pending per-row weights (landFullHist, expanded by Finish), the
// partial-mask rows through the epoch's between-lane map
// (landPartialHist). MaxWrites is O(1): after each Step the stepper
// rescans only the rows the epoch scattered cells into. Cell counts only
// grow, so the running maximum never needs a full distribution scan, and
// the pending full-mask weight adds uniformly across a row, so a row's
// maximum is (max materialized cell in the row, tracked per row) +
// (pending row weight).
package core

import (
	"fmt"

	"pimendure/internal/mapping"
	"pimendure/internal/obs"
)

// Stepper accumulates a wear simulation one recompile epoch at a time
// over a shared WearPlan, exposing the live hottest-cell count between
// epochs. Create one with WearPlan.NewStepper, advance it with Step —
// epoch e of the equivalent batch run is the (e+1)-th Step call — and
// close it with Finish. A Stepper is serial and not safe for concurrent
// use; run independent Steppers (one per bank) concurrently instead —
// the plan itself is immutable and shared.
type Stepper struct {
	plan  *WearPlan
	strat StrategyConfig
	sched mapping.Schedule
	dist  *WriteDist

	epoch int // next epoch index
	iters int // iterations accumulated so far

	// scr is the stepper's arena-drawn working state, held from NewStepper
	// until Finish returns it to the plan: the pending full-mask row
	// weights (scr.rowW, expanded into whole rows by Finish), the epoch
	// histogram (scr.hist; under +Hw the memoized replay) and the replay
	// scratch, and the per-physical-row maxima (scr.rowMax — hottest
	// materialized cell per row; excludes the pending rowW, which Step
	// folds in when it updates curMax).
	scr *engineScratch

	// One-entry +Hw histogram memo key: scr.hist holds the replay of an
	// epoch with within key histKey run for histN iterations (histN 0 =
	// no entry).
	histKey, histN int

	curMax uint64
}

// NewStepper prepares an incremental simulation of one load-balancing
// configuration against the plan. Only cfg's Rows, PresetOutputs, Seed
// and ShiftStep are consulted: the iteration count is whatever the Step
// calls add up to, and Workers/Sampler/Iterations are ignored (the
// stepper is serial; sample by reading MaxWrites between steps).
func (p *WearPlan) NewStepper(cfg SimConfig, strat StrategyConfig) (*Stepper, error) {
	probe := cfg
	probe.Iterations = 1 // Validate demands a positive count; steps supply the real one
	if err := p.check(probe, strat.Hw); err != nil {
		return nil, err
	}
	s := &Stepper{
		plan:  p,
		strat: strat,
		sched: cfg.schedule(p.trace.Lanes, strat),
		dist:  p.newDist(),
	}
	s.dist.StepsPerIteration = p.stats.Steps
	s.scr = p.getScratch()
	s.scr.gen.reset(s.sched)
	p.ensureRowW(s.scr)
	p.ensureRowMax(s.scr)
	p.ensureLand(s.scr)
	if strat.Hw {
		p.ensureHw(s.scr)
		obsHwCycleLen.Add(int64(p.cycle.Period))
	}
	return s, nil
}

// Epoch returns the next epoch index — the number of Step calls so far.
func (s *Stepper) Epoch() int { return s.epoch }

// Iterations returns the iterations accumulated so far.
func (s *Stepper) Iterations() int { return s.iters }

// MaxWrites returns the hottest cell's accumulated write count — Eq. 4's
// max(WriteCount) over the iterations stepped so far. O(1): the maximum
// is maintained during accumulation.
func (s *Stepper) MaxWrites() uint64 { return s.curMax }

// Step accumulates the next recompile epoch with the given iteration
// count (an equivalent batch run's epoch lengths: RecompileEvery per
// epoch, short final epoch allowed). Calls with iters ≤ 0 are no-ops
// that do not advance the epoch index.
//
// Software and +Hw steps differ only in how the epoch's histogram is
// built; both land it through the walker's primitives and fold the rows
// it touched into the running maximum.
func (s *Stepper) Step(iters int) {
	if iters <= 0 {
		return
	}
	p, gen, hist := s.plan, &s.scr.gen, s.scr.hist
	if s.strat.Hw {
		s.replay(iters)
	} else {
		clear(hist)
		p.addSwHist(gen.withinAt(s.epoch), uint64(iters), hist)
		obsSwGroups.Add(1)
	}
	p.landFullHist(hist, 1, s.scr.rowW)
	p.landPartialHist(s.scr, hist, gen.betweenAt(s.epoch), 1, s.dist.Counts)
	rows := p.rows
	for r := 0; r < rows; r++ {
		if touches(hist, p.partMasks, rows, r) {
			s.track(r, true)
		} else if touches(hist, p.fullMasks, rows, r) {
			s.track(r, false)
		}
	}
	obsEpochs.Add(1)
	s.epoch++
	s.iters += iters
}

// replay fills scr.hist with the epoch's closed-cycle +Hw histogram, or
// keeps the memoized one when the previous replay had the same within
// key and length (the renamer resets every epoch, so the histogram is
// identical).
func (s *Stepper) replay(iters int) {
	key := s.sched.WithinKey(s.epoch)
	if s.histN == iters && s.histKey == key {
		obsHwMemoHits.Add(1)
		obsHwReplayItersSaved.Add(int64(iters))
		return
	}
	s.plan.replayJobHist(s.scr, s.epoch, iters, uint64(iters), s.scr.hist)
	obsHwReplays.Add(1)
	s.histKey, s.histN = key, iters
}

// touches reports whether any of the masks' histogram rows puts writes on
// physical row r.
func touches(hist []uint64, masks []int32, rows, r int) bool {
	for _, m := range masks {
		if hist[int(m)*rows+r] != 0 {
			return true
		}
	}
	return false
}

// track folds physical row pr into the running maximum after an epoch
// landed on it, first rescanning its materialized cells when the epoch
// scattered writes into them (rescan) rather than only growing the row's
// pending uniform weight.
func (s *Stepper) track(pr int, rescan bool) {
	if rescan {
		s.scr.rowMax[pr] = s.rowPeak(pr)
	}
	s.curMax = max(s.curMax, s.scr.rowMax[pr]+s.scr.rowW[pr])
}

// rowPeak returns the hottest materialized cell of physical row pr.
func (s *Stepper) rowPeak(pr int) uint64 {
	lanes := s.dist.Lanes
	var m uint64
	for _, c := range s.dist.Counts[pr*lanes : (pr+1)*lanes] {
		m = max(m, c)
	}
	return m
}

// Release hands the stepper's scratch and counts buffer back to the
// plan's arena without completing the distribution — the end of a
// stepper whose caller only read MaxWrites (the wear-aware bank router).
// It is an alternative to Finish, not a follow-up: the stepper must not
// be used afterwards, and no writes are counted.
func (s *Stepper) Release() {
	if s.scr != nil {
		s.plan.putScratch(s.scr)
		s.scr = nil
	}
	s.dist.Release()
}

// Finish completes the accumulation (expanding the pending full-mask row
// weights), returns the stepper's working scratch to the plan's arena,
// and returns the distribution — cell-for-cell identical to Simulate over
// the same epoch sequence. The stepper must not be stepped again after
// Finish.
func (s *Stepper) Finish() (*WriteDist, error) {
	if s.iters <= 0 {
		return nil, fmt.Errorf("core: stepper finished with no iterations stepped")
	}
	if s.scr != nil {
		expandRowWeights(s.scr.rowW, s.dist.Lanes, s.dist.Counts)
		s.plan.putScratch(s.scr)
		s.scr = nil
	}
	s.dist.Iterations = s.iters
	if obs.Enabled() {
		obsWrites.Add(int64(s.dist.Total()))
	}
	return s.dist, nil
}
