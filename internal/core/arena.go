// The per-plan buffer arena: reusable engine scratch pooled on the
// WearPlan so steady-state traffic against a cached plan is
// near-allocation-free.
//
// Every simulation against a plan needs the same working set — a
// rows×lanes accumulation buffer per worker, per-row weight and
// per-(mask, row) histogram scratch, renamer/cycle replay state for the
// +Hw replays, and a permutation-generation kit (one scratch
// permutation pair plus a reusable rng) — and all of it is sized by plan
// constants alone (rows, lanes, mask count, op count). The arena keeps
// free lists of exactly those shapes, guarded by one mutex: a
// Simulate/Sweep/serve call on a warm plan pops buffers instead of
// allocating them, and pushes them back when it returns. WriteDist
// results participate too: a distribution built by WearPlan.Simulate
// carries a release hook, so callers that are done with the counts
// (benchmark loops, the serving layer after summarizing a job) can hand
// the 8 MB buffer back with WriteDist.Release instead of leaving it to
// the garbage collector.
//
// Ownership discipline (see ARCHITECTURE.md "Memory discipline"):
// buffers are owned exclusively between get and put; the arena never
// hands the same buffer to two holders. Counts buffers are returned
// zeroed from the arena; scratch bundles are returned as their holder
// left them and re-initialized by their consumers (ensureRowW zeroes the
// row weights, a landing clears the histogram before adding to it, the
// permutation fillers overwrite every slot). The core.arena_hits /
// core.arena_misses counters record how often an acquisition was served
// from a free list versus a fresh allocation.
package core

import (
	"math/rand"
	"sync"

	"pimendure/internal/mapping"
	"pimendure/internal/obs"
)

// Arena accounting (no-ops until obs.Enable): how many scratch/buffer
// acquisitions were served from a plan's free lists versus freshly
// allocated. On a warm plan hits dominate and misses stay at the
// high-water concurrency mark.
var (
	// obsArenaHits counts arena acquisitions served from a free list.
	obsArenaHits = obs.GetCounter("core.arena_hits")
	// obsArenaMisses counts arena acquisitions that had to allocate.
	obsArenaMisses = obs.GetCounter("core.arena_misses")
)

// arena is the per-WearPlan pool of engine scratch. The zero value is
// ready to use; all methods are safe for concurrent use.
type arena struct {
	mu      sync.Mutex
	scratch []*engineScratch
	counts  [][]uint64 // rows*lanes accumulation buffers, stored zeroed
}

// permGen regenerates a schedule's epoch permutations into reusable
// scratch: one (within, between) pair and one re-seedable rng. A permGen
// is single-goroutine state; each worker owns its own.
type permGen struct {
	sched           mapping.Schedule
	rng             *rand.Rand
	within, between *mapping.Perm
}

// reset binds the generator to a schedule. Scratch carries over; only
// the permutation definitions change.
func (g *permGen) reset(sched mapping.Schedule) {
	g.sched = sched
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(1))
	}
}

// withinAt fills the within-lane scratch with epoch's permutation and
// returns it. The result is invalidated by the next withinAt call.
func (g *permGen) withinAt(epoch int) *mapping.Perm {
	g.within = g.sched.EpochWithinInto(epoch, g.within, g.rng)
	return g.within
}

// betweenAt is withinAt for the between-lane permutation.
func (g *permGen) betweenAt(epoch int) *mapping.Perm {
	g.between = g.sched.EpochBetweenInto(epoch, g.between, g.rng)
	return g.between
}

// engineScratch bundles one worker's reusable simulation state. Fields
// are created lazily by the ensure* helpers, sized by plan constants, so
// a software-only workload never pays for replay scratch.
type engineScratch struct {
	gen    permGen
	rowW   []uint64 // per-physical-row weights (rank-1 full-mask part)
	rowMax []uint64 // per-physical-row maxima (stepper live tracking)
	hist   []uint64 // [mask*rows+physRow] partial-mask histogram; dense output of a +Hw replay
	hw     *mapping.HwRenamer
	cyc    *cycleScratch
	units  grouper // the walker's epoch units (worker 0 only)
	lands  grouper // one between unit's epochs, by within map (and length)

	// landPartialHist's lane sets under one between map: each partial
	// mask's permuted lanes, sorted, at sorted[sortedOff[i]:sortedOff[i+1]],
	// extracted from the lane bitmap laneBits (kept zeroed between calls).
	sorted    []int32
	sortedOff []int32
	laneBits  []uint64
}

// take pops the newest entry of one of the arena's free lists, or
// allocates a fresh one when the list is empty, recording the hit or
// miss.
func take[T any](a *arena, list *[]T, alloc func() T) T {
	a.mu.Lock()
	if n := len(*list); n > 0 {
		v := (*list)[n-1]
		*list = (*list)[:n-1]
		a.mu.Unlock()
		obsArenaHits.Add(1)
		return v
	}
	a.mu.Unlock()
	obsArenaMisses.Add(1)
	return alloc()
}

// give pushes v onto one of the arena's free lists.
func give[T any](a *arena, list *[]T, v T) {
	a.mu.Lock()
	*list = append(*list, v)
	a.mu.Unlock()
}

// getScratch pops (or allocates) a worker scratch bundle.
func (p *WearPlan) getScratch() *engineScratch {
	return take(&p.arena, &p.arena.scratch, func() *engineScratch { return &engineScratch{} })
}

// putScratch returns a worker scratch bundle to the plan's free list.
// The bundle's buffers may be dirty; acquirers re-initialize what they
// use (ensureRowW zeroes, a landing clears the histogram, the
// permutation fillers overwrite every slot).
func (p *WearPlan) putScratch(s *engineScratch) { give(&p.arena, &p.arena.scratch, s) }

// ensureRowW sizes and zeroes the scratch's per-row weight buffer.
func (p *WearPlan) ensureRowW(s *engineScratch) { s.rowW = p.zeroedRows(s.rowW) }

// ensureRowMax sizes and zeroes the scratch's per-row maximum buffer.
func (p *WearPlan) ensureRowMax(s *engineScratch) { s.rowMax = p.zeroedRows(s.rowMax) }

// zeroedRows returns buf zeroed, reallocated if it is not one entry per
// physical row.
func (p *WearPlan) zeroedRows(buf []uint64) []uint64 {
	if len(buf) != p.rows {
		return make([]uint64, p.rows)
	}
	clear(buf)
	return buf
}

// ensureLand sizes the scratch every landing needs: the histogram (left
// dirty — a landing clears it first) and landPartialHist's zeroed lane
// bitmap.
func (p *WearPlan) ensureLand(s *engineScratch) {
	if len(s.hist) != len(p.maskLanes)*p.rows {
		s.hist = make([]uint64, len(p.maskLanes)*p.rows)
	}
	if words := (p.trace.Lanes + 63) / 64; len(s.laneBits) != words {
		s.laneBits = make([]uint64, words)
	}
	clear(s.laneBits)
}

// ensureHw sizes the scratch's +Hw replay state (renamer, cycle
// decomposition).
func (p *WearPlan) ensureHw(s *engineScratch) {
	if s.hw == nil || s.hw.ArchRows() != p.rows-1 {
		s.hw = mapping.NewHwRenamer(p.rows)
	}
	if s.cyc == nil || len(s.cyc.orbit) != p.rows || len(s.cyc.starts) != len(p.ops) ||
		len(s.cyc.diff) != len(p.maskLanes)*(p.rows+1) {
		s.cyc = newCycleScratch(p.rows, len(p.ops), len(p.maskLanes))
	}
}

// getCounts pops (or allocates) a zeroed rows×lanes accumulation buffer.
func (p *WearPlan) getCounts() []uint64 {
	return take(&p.arena, &p.arena.counts, func() []uint64 { return make([]uint64, p.rows*p.trace.Lanes) })
}

// putCounts zeroes a counts buffer and returns it to the free list.
// Buffers of the wrong length (never handed out by this plan) are
// dropped rather than poisoning the pool.
func (p *WearPlan) putCounts(buf []uint64) {
	if len(buf) != p.rows*p.trace.Lanes {
		return
	}
	clear(buf)
	give(&p.arena, &p.arena.counts, buf)
}

// newDist builds a WriteDist whose counts buffer is drawn from the
// plan's arena and whose Release hook returns it there.
func (p *WearPlan) newDist() *WriteDist {
	d := &WriteDist{Rows: p.rows, Lanes: p.trace.Lanes, Counts: p.getCounts()}
	d.release = p.putCounts
	return d
}
