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
// Software and +Hw steps differ only in their base histogram — the
// plan's write-matrix table times the epoch length, or the renamer's
// identity-map replay of the epoch's length, which the stepper keeps for
// the last length it stepped (a run steps one length, then perhaps a
// short final one). Both relabel it by the epoch's within-lane map
// (addHist): the full-mask rows land as pending per-row weights
// (expanded by Finish), the partial-mask rows through the walker's one
// partial landing (landPartialHist) as a one-epoch between unit — the
// epoch's between-lane map weighed in with weight 1 (weighLanes), a map
// a plan without partial masks never generates. MaxWrites is O(1):
// after each Step the stepper rescans only the rows the epoch scattered
// cells into. Cell counts only grow, so the running maximum never needs
// a full distribution scan, and the pending full-mask weight adds
// uniformly across a row, so a row's maximum is (max materialized cell
// in the row, tracked per row) + (pending row weight).
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
	// weights (scr.rowW, expanded into whole rows by Finish), the epoch's
	// partial-mask histogram (scr.hist), and the per-physical-row maxima
	// (scr.rowMax — hottest materialized cell per row; excludes the
	// pending rowW, which Step folds in when it updates curMax).
	scr *engineScratch

	// +Hw: the replay of the last epoch length stepped (hwLen 0: none).
	hwLen  int
	hwHist histBase

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
// Software and +Hw steps differ only in their base histogram; both land
// it through the walker's primitives and fold the rows it touched into
// the running maximum.
func (s *Stepper) Step(iters int) {
	if iters <= 0 {
		return
	}
	p, gen, hist := s.plan, &s.scr.gen, s.scr.hist
	base, mult := &p.sw, uint64(iters)
	if s.strat.Hw {
		if iters != s.hwLen {
			s.hwLen, s.hwHist = iters, p.replayJobHist(s.scr, iters)
		} else {
			obsHwMemoHits.Add(1)
			obsHwReplayItersSaved.Add(int64(iters))
		}
		base, mult = &s.hwHist, 1
	} else {
		obsSwGroups.Add(1)
	}
	if len(p.partMasks) > 0 {
		clear(hist)
	}
	p.addHist(base, gen.withinAt(s.epoch), mult, mult, s.scr.rowW, hist)
	if len(p.partMasks) > 0 {
		p.weighLanes(&s.scr.lw, gen.betweenAt(s.epoch), 1)
		p.landPartialHist(&s.scr.lw, hist, s.dist.Counts)
	}
	// Rows the partial landing scattered into get their materialized
	// maximum rescanned; every row's pending weight may have grown.
	for r := range s.scr.rowW {
		for _, m := range p.partMasks {
			if hist[int(m)*p.rows+r] != 0 {
				s.scr.rowMax[r] = s.rowPeak(r)
				break
			}
		}
		s.curMax = max(s.curMax, s.scr.rowMax[r]+s.scr.rowW[r])
	}
	obsEpochs.Add(1)
	s.epoch++
	s.iters += iters
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
