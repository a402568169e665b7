// The segment-ordered wear walker: the one fast engine behind
// WearPlan.Simulate.
//
// Every configuration reduces to one computation: for each recompile
// epoch, land a per-(mask, physical row) write histogram — a base with
// its rows relabeled by the epoch's within-lane map — through that
// epoch's between-lane map. The base is the plan's write-matrix table
// times the epoch length under software re-mapping, and under +Hw the
// identity-map replay of the epoch's length, run once per length when
// the walk starts (hw_engine.go). Both land through the same primitives (land.go):
// addHist relabels a base, adding its full-mask rows as per-row weights
// and its partial-mask rows to a histogram that landPartialHist scatters
// through sorted lane sets.
//
// The walker advances one segment at a time. Segments end at the
// sampler's due epochs; without a sampler one segment spans the whole
// run. The sampler observes the distribution only at segment boundaries,
// so epochs inside a segment may land in any order (uint64 adds commute),
// and the walker exploits that freedom:
//
//   - Grouping: epochs with identical landings collapse into units (see
//     grouper). Epochs with the same within map — and, under +Hw, the
//     same length — share a relabeled base, which is added once, scaled
//     by the members' summed iterations (software) or their count (+Hw).
//     With partial masks a unit is a segment's between-lane map: its
//     members are sub-grouped by within map, each group adds its base,
//     and the unit's partial rows land once. Whatever the within maps, an
//     St between map makes one unit per segment and a Bs one its rotation
//     period; only Ra-between epochs stay unique. A plan without partial
//     masks (mult) needs no between map at all: its units are the
//     segment's within groups, which land only per-row weights.
//   - Sharding: a segment's units are sharded over pool.Size(workers,
//     units) workers. Worker 0 lands into the distribution itself; with
//     partial masks the others land into arena counts buffers merged at
//     the segment's end, and without them they only add row weights and
//     take no buffer. Merging is uint64 addition, so the result is
//     bit-identical for every worker count and sampling cadence.
//   - Segment close: the full-mask row weights pending from every unit
//     are expanded into whole rows, and the sampler records the true
//     prefix.
package core

import (
	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/pool"
)

// groupKey selects what makes two epochs' landings identical.
type groupKey uint8

const (
	byWithin  groupKey = 1 << iota // within-lane permutation
	byBetween                      // between-lane permutation
	byLength                       // epoch length in iterations
)

// epochGroup is a set of epochs whose landings are identical.
type epochGroup struct {
	epoch0  int    // representative epoch (regenerates the permutations)
	iters   uint64 // summed iterations of the members
	count   int    // member count
	members []int  // member epochs, in input order
}

// grouper partitions epoch lists into epochGroups by the schedule's
// epoch keys (mapping.Schedule.WithinKey/BetweenKey), which name each
// epoch's maps without generating them. Groups hold only integers, and
// the storage survives across calls, so steady-state grouping is
// allocation-free.
type grouper struct {
	groups []epochGroup
	of     []int32 // group of each input epoch
	flat   []int   // backing array of the member lists
	index  map[[3]int]int32
}

// group partitions epochs by key, in first-seen order. The result aliases
// g's storage and is valid until the next call.
func (g *grouper) group(sched mapping.Schedule, cfg SimConfig, epochs []int, key groupKey) []epochGroup {
	if cap(g.of) < len(epochs) {
		g.groups = make([]epochGroup, 0, len(epochs))
		g.of = make([]int32, 0, len(epochs))
		g.flat = make([]int, len(epochs))
	}
	g.groups, g.of = g.groups[:0], g.of[:0]
	if g.index == nil {
		g.index = make(map[[3]int]int32, len(epochs))
	} else {
		clear(g.index)
	}
	for _, e := range epochs {
		var k [3]int
		if key&byWithin != 0 {
			k[0] = sched.WithinKey(e)
		}
		if key&byBetween != 0 {
			k[1] = sched.BetweenKey(e)
		}
		if key&byLength != 0 {
			k[2] = cfg.epochLen(e)
		}
		id, ok := g.index[k]
		if !ok {
			id = int32(len(g.groups))
			g.groups = append(g.groups, epochGroup{epoch0: e})
			g.index[k] = id
		}
		g.groups[id].count++
		g.groups[id].iters += uint64(cfg.epochLen(e))
		g.of = append(g.of, id)
	}
	// Bucket the members into one flat array, each group owning a
	// capacity-bounded subslice.
	off := 0
	for i := range g.groups {
		end := off + g.groups[i].count
		g.groups[i].members = g.flat[off:off:end]
		off = end
	}
	for i, e := range epochs {
		grp := &g.groups[g.of[i]]
		grp.members = append(grp.members, e)
	}
	return g.groups
}

// walker is the state of one Simulate call.
type walker struct {
	p     *WearPlan
	cfg   SimConfig
	sched mapping.Schedule
	hw    bool
	dist  *WriteDist
	scr   []*engineScratch // per-worker scratch, grown on demand
	parts [][]uint64       // per-worker counts; parts[0] is dist.Counts

	// +Hw runs: the replay of the full-length epochs, and of the final
	// epoch (the same one unless that epoch is short).
	hwFull, hwLast histBase
}

// walk accumulates one simulation into dist, segment by segment.
func (p *WearPlan) walk(cfg SimConfig, sched mapping.Schedule, hw bool, dist *WriteDist) {
	stage := "core.simulate/sw-accumulate"
	if hw {
		stage = "core.simulate/hw-replay"
	}
	sp := obs.StartSpan(stage)
	defer sp.End()
	w := &walker{p: p, cfg: cfg, sched: sched, hw: hw, dist: dist, parts: [][]uint64{dist.Counts}}
	w.grow(1)
	total := cfg.epochs()
	all := make([]int, total)
	for e := range all {
		all[e] = e
	}
	obsEpochs.Add(int64(total))
	if hw {
		n, last := cfg.epochLen(0), cfg.epochLen(total-1)
		w.hwFull = p.replayJobHist(w.scr[0], n)
		w.hwLast = w.hwFull
		served := total - 1
		if last != n {
			w.hwLast, served = p.replayJobHist(w.scr[0], last), total-2
		}
		// The other epochs, all n long, land from these replays.
		obsHwMemoHits.Add(int64(served))
		obsHwReplayItersSaved.Add(int64(served) * int64(n))
	}
	for start := 0; start < total; {
		end := total - 1
		if s := cfg.Sampler; s != nil {
			for end = start; !s.due(end, total-1); end++ {
			}
		}
		w.land(all[start : end+1])
		w.closeSegment()
		if s := cfg.Sampler; s != nil {
			s.Sample(end, min((end+1)*cfg.recompileEvery(), cfg.Iterations), dist)
		}
		start = end + 1
	}
	for _, part := range w.parts[1:] {
		p.putCounts(part)
	}
	for _, s := range w.scr {
		p.putScratch(s)
	}
}

// grow makes sure n workers have scratch drawn from the plan's arena.
func (w *walker) grow(n int) {
	for len(w.scr) < n {
		s := w.p.getScratch()
		s.gen.reset(w.sched)
		w.p.ensureRowW(s)
		w.p.ensureLand(s)
		w.scr = append(w.scr, s)
	}
}

// shard lands every unit over the worker pool; land gets the worker's
// slot. With counts, every helper worker also gets an arena counts buffer
// (w.parts[slot]), merged into the distribution and left zeroed once the
// units have landed.
func (w *walker) shard(units int, counts bool, land func(slot, unit int)) {
	n := pool.Size(w.cfg.workers(), units)
	w.grow(n)
	for counts && len(w.parts) < n {
		w.parts = append(w.parts, w.p.getCounts())
	}
	pool.ForEachWorker(n, units, land)
	if !counts {
		return
	}
	for _, part := range w.parts[1:n] {
		for i, c := range part {
			if c != 0 {
				w.dist.Counts[i] += c
				part[i] = 0
			}
		}
	}
}

// land lands one segment. Its epochs are grouped by within map (and
// length, under +Hw) into groups that each add one relabeled base; with
// partial masks the groups are formed inside units of one between map,
// whose partial rows land once per unit.
func (w *walker) land(seg []int) {
	p := w.p
	key := byWithin
	if w.hw {
		key |= byLength
	}
	if len(p.partMasks) == 0 {
		units := w.scr[0].units.group(w.sched, w.cfg, seg, key)
		w.countSw(len(units), len(seg))
		w.shard(len(units), false, func(slot, u int) { w.add(w.scr[slot], &units[u]) })
		return
	}
	units := w.scr[0].units.group(w.sched, w.cfg, seg, byBetween)
	w.shard(len(units), true, func(slot, u int) {
		s, unit := w.scr[slot], &units[u]
		groups := s.lands.group(w.sched, w.cfg, unit.members, key)
		w.countSw(len(groups), unit.count)
		clear(s.hist)
		for i := range groups {
			w.add(s, &groups[i])
		}
		p.landPartialHist(s, s.hist, s.gen.betweenAt(unit.epoch0), w.parts[slot])
	})
}

// add adds one group's relabeled base to the worker's row weights and
// partial-mask histogram: the plan's write-matrix table times the
// members' summed iterations in software, the replay of their length
// times their count under +Hw.
func (w *walker) add(s *engineScratch, g *epochGroup) {
	base, mult := &w.p.sw, g.iters
	if w.hw {
		base, mult = &w.hwFull, uint64(g.count)
		if g.epoch0 == w.cfg.epochs()-1 {
			base = &w.hwLast
		}
	}
	w.p.addHist(base, s.gen.withinAt(g.epoch0), mult, s.rowW, s.hist)
}

// countSw records, for a software run, the landings summed for epochs
// epochs.
func (w *walker) countSw(landings, epochs int) {
	if !w.hw {
		obsSwGroups.Add(int64(landings))
		obsSwMemoHits.Add(int64(epochs - landings))
	}
}

// closeSegment completes the segment's rank-1 full-mask landings: it
// merges the workers' pending per-row weights and expands them into whole
// rows, so the sampler sees the true prefix distribution.
func (w *walker) closeSegment() {
	rowW := w.scr[0].rowW
	for _, s := range w.scr[1:] {
		for pr, c := range s.rowW {
			rowW[pr] += c
			s.rowW[pr] = 0
		}
	}
	expandRowWeights(rowW, w.dist.Lanes, w.dist.Counts)
}
