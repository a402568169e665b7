// The segment-ordered wear walker: the one fast engine behind
// WearPlan.Simulate.
//
// Every configuration reduces to one computation: for each recompile
// epoch, land a write histogram through that epoch's between-lane map.
// Under software re-mapping the histogram is the one-iteration write
// matrix permuted by the epoch's within-lane map (sw_engine.go); under
// +Hw it is the renamer replayed within the epoch, which resets at every
// recompile boundary (hw_engine.go).
//
// The walker advances one segment at a time. Segments end at the
// sampler's due epochs; without a sampler one segment spans the whole
// run. The sampler observes the distribution only at segment boundaries,
// so epochs inside a segment may land in any order (uint64 adds commute),
// and the walker exploits that freedom:
//
//   - Grouping: epochs with identical landings collapse into units (see
//     grouper). A software unit is a segment's (within, between)
//     permutation pair carrying its members' summed iterations: St×St
//     collapses to one unit, Bs families to their rotation period, only
//     Ra epochs stay unique. A +Hw unit is a replay job — a (within
//     permutation, epoch length) pair grouped once over the whole run,
//     replayed once. Its full-mask rows land once per segment, scaled by
//     the job's members there; only its partial-mask rows need the
//     segment epochs grouped by between-lane permutation, one multiplied
//     landing per group, and a plan without partial masks skips that.
//   - Sharding: a segment's units are sharded over pool.Size(workers,
//     units) workers. Worker 0 lands into the distribution itself; the
//     others land into arena counts buffers merged at the segment's end.
//     Merging is uint64 addition, so the result is bit-identical for
//     every worker count and sampling cadence.
//   - Segment close: the full-mask row weights pending from either kind
//     of landing (software or +Hw) are expanded into whole rows, and the
//     sampler records the true prefix.
//
// A +Hw job whose members continue into a later segment keeps its
// histogram in an arena buffer until its last member lands; a job that
// completes within its first segment replays into worker scratch.
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
	next    int32  // next group in the same fingerprint bucket (-1 ends)
}

// grouper partitions epoch lists into epochGroups: fingerprint buckets,
// collisions resolved by exact permutation equality. Permutations are
// regenerated into a permGen's scratch on demand, so groups hold only
// integers, and the storage survives across calls, so steady-state
// grouping is allocation-free.
type grouper struct {
	groups []epochGroup
	of     []int32 // group of each input epoch
	flat   []int   // backing array of the member lists
	index  map[[3]uint64]int32
}

// group partitions epochs by key, in first-seen order. The result aliases
// g's storage and is valid until the next call.
func (g *grouper) group(gen *permGen, cfg SimConfig, epochs []int, key groupKey) []epochGroup {
	if cap(g.of) < len(epochs) {
		g.groups = make([]epochGroup, 0, len(epochs))
		g.of = make([]int32, 0, len(epochs))
		g.flat = make([]int, len(epochs))
	}
	g.groups, g.of = g.groups[:0], g.of[:0]
	if g.index == nil {
		g.index = make(map[[3]uint64]int32, len(epochs))
	} else {
		clear(g.index)
	}
	for _, e := range epochs {
		// A lone epoch forms its own group: skip regenerating its maps.
		var k [3]uint64
		if len(epochs) > 1 {
			if key&byWithin != 0 {
				k[0] = gen.withinAt(e).Fingerprint()
			}
			if key&byBetween != 0 {
				k[1] = gen.betweenAt(e).Fingerprint()
			}
			if key&byLength != 0 {
				k[2] = uint64(cfg.epochLen(e))
			}
		}
		id, ok := g.index[k]
		if !ok {
			id = g.add(e)
			g.index[k] = id
		}
		for ok && !gen.same(g.groups[id].epoch0, key) {
			// True fingerprint collision: walk the bucket's chain, ending it
			// with a new group when no member matches.
			if next := g.groups[id].next; next >= 0 {
				id = next
				continue
			}
			g.groups[id].next = int32(len(g.groups))
			id, ok = g.add(e), false
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

func (g *grouper) add(epoch int) int32 {
	g.groups = append(g.groups, epochGroup{epoch0: epoch, next: -1})
	return int32(len(g.groups) - 1)
}

// same reports whether epoch0's permutations selected by key equal the
// ones last filled into the primary scratch.
func (g *permGen) same(epoch0 int, key groupKey) bool {
	return (key&byWithin == 0 || g.within2At(epoch0).Equal(g.within)) &&
		(key&byBetween == 0 || g.between2At(epoch0).Equal(g.between))
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

	// +Hw run state: the replay jobs, and per job the members landed so
	// far and the histogram kept while members remain.
	jobs    []epochGroup
	landed  []int
	hists   [][]uint64
	segJobs []int32
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
		w.jobs = w.scr[0].units.group(&w.scr[0].gen, cfg, all, byWithin|byLength)
		w.landed = make([]int, len(w.jobs))
		w.hists = make([][]uint64, len(w.jobs))
		obsHwReplays.Add(int64(len(w.jobs)))
		obsHwMemoHits.Add(int64(total - len(w.jobs)))
		obsHwCycleLen.Add(int64(p.cycle.Period))
	}
	for start := 0; start < total; {
		end := total - 1
		if s := cfg.Sampler; s != nil {
			for end = start; !s.due(end, total-1); end++ {
			}
		}
		if hw {
			w.landHw(all[start : end+1])
		} else {
			w.landSw(all[start : end+1])
		}
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

// grow makes sure n workers have scratch and counts buffers, drawn from
// the plan's arena.
func (w *walker) grow(n int) {
	for len(w.scr) < n {
		s := w.p.getScratch()
		s.gen.reset(w.sched)
		w.p.ensureRowW(s)
		if w.hw {
			w.p.ensureHw(s)
		}
		w.scr = append(w.scr, s)
		if len(w.parts) < len(w.scr) {
			w.parts = append(w.parts, w.p.getCounts())
		}
	}
}

// shard lands every unit over the worker pool and merges the helper
// workers' counts into the distribution, leaving their buffers zeroed.
func (w *walker) shard(units int, land func(s *engineScratch, counts []uint64, unit int)) {
	n := pool.Size(w.cfg.workers(), units)
	w.grow(n)
	pool.ForEachWorker(n, units, func(slot, u int) { land(w.scr[slot], w.parts[slot], u) })
	for _, part := range w.parts[1:n] {
		for i, c := range part {
			if c != 0 {
				w.dist.Counts[i] += c
				part[i] = 0
			}
		}
	}
}

// landSw lands one segment of a software run.
func (w *walker) landSw(seg []int) {
	units := w.scr[0].units.group(&w.scr[0].gen, w.cfg, seg, byWithin|byBetween)
	obsSwGroups.Add(int64(len(units)))
	obsSwMemoHits.Add(int64(len(seg) - len(units)))
	w.shard(len(units), func(s *engineScratch, counts []uint64, u int) {
		accumulateSwJob(w.p, &s.gen, units[u].epoch0, units[u].iters, s.rowW, counts)
	})
}

// landHw lands one segment of a +Hw run: each job with members in the
// segment is one unit, replayed on first touch. Its full-mask rows land
// once, scaled by the members in the segment; only partial-mask rows are
// landed per distinct between permutation among those members.
func (w *walker) landHw(seg []int) {
	p, last := w.p, seg[len(seg)-1]
	// A job enters the segment at its first unlanded member.
	w.segJobs = w.segJobs[:0]
	for _, e := range seg {
		j := w.scr[0].units.of[e]
		if w.jobs[j].members[w.landed[j]] == e {
			w.segJobs = append(w.segJobs, j)
		}
	}
	w.shard(len(w.segJobs), func(s *engineScratch, counts []uint64, u int) {
		j := w.segJobs[u]
		job := &w.jobs[j]
		rest := job.members[w.landed[j]:]
		m := 1
		for m < len(rest) && rest[m] <= last {
			m++
		}
		hist := w.hists[j]
		if hist == nil {
			hist = s.hist
			if m < len(rest) {
				hist = p.getHist()
				w.hists[j] = hist
			}
			p.replayJobHist(s, job.epoch0, w.cfg.epochLen(job.epoch0), job.iters, hist)
		}
		p.landFullHist(hist, uint64(m), s.rowW)
		if len(p.partMasks) > 0 {
			for _, g := range s.lands.group(&s.gen, w.cfg, rest[:m], byBetween) {
				p.landPartialHist(hist, s.gen.betweenAt(g.epoch0), uint64(g.count), counts)
			}
		}
		w.landed[j] += m
		if m == len(rest) && w.hists[j] != nil {
			p.putHist(w.hists[j])
			w.hists[j] = nil
		}
	})
}

// closeSegment completes the segment's rank-1 full-mask landings, software
// and +Hw alike: it merges the workers' pending per-row weights and
// expands them into whole rows, so the sampler sees the true prefix
// distribution.
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
