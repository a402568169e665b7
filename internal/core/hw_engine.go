// How the walker lands one +Hw epoch.
//
// Epochs of a +Hw simulation are independent: the hardware renamer is
// Reset() at every recompile boundary, so the per-epoch physical-row
// histogram hist[mask][physRow] depends only on (a) the epoch's
// within-lane permutation restricted to the trace's logical rows and
// (b) the epoch length in iterations. The between-lane permutation only
// relabels columns when the histogram lands in the distribution.
//
// The walker (walk.go) exploits this twice:
//
//   - Memoization: epochs are grouped into replay jobs by (within
//     permutation, length). Under St-within every full-length epoch
//     shares one job (one replay for the whole run); under Bs-within the
//     rotation family cycles with period archRows/gcd(step, archRows), so
//     jobs recur whenever the period divides into the epoch count;
//     Ra-within epochs are (almost always) distinct. Each job is replayed
//     once (replayJobHist) and multiply-accumulated into every member
//     epoch through that epoch's own between-lane permutation (addHist).
//
//   - Closed-cycle replay: each iteration applies a fixed permutation σ
//     to the renamer state (every full-mask write is a transposition of
//     state slots sharing the free slot), so the physical row an op
//     touches at iteration t is σ^t(u) for a fixed orbit start u. A job
//     of n iterations replays exactly one iteration (recording each
//     op's u and σ itself) and reconstructs the full histogram from
//     per-op cycle counts — O(Σ_ops min(cycleLen, n)) instead of
//     O(n × ops). This is the win that makes long recompile epochs (the
//     paper's RecompileEvery=10 000 sweeps) cheap even under Ra-within,
//     where memoization cannot group anything. The analytic period of σ
//     (mapping.AnalyzeRenamerCycle) cross-checks every job's detected
//     permutation at runtime.
package core

import (
	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/program"
)

// wop is a flattened write-inducing op for the replay hot loop.
type wop struct {
	row  int32 // logical out row
	mask int32
	w    uint8
	full bool
}

// flattenOps projects the trace onto its write-inducing ops and
// pre-resolves each mask's lane set.
func flattenOps(tr *program.Trace, preset bool) (ops []wop, maskLanes [][]int) {
	for _, op := range tr.Ops {
		if w := op.WritesPerLane(preset); w > 0 {
			ops = append(ops, wop{
				row:  int32(op.Out),
				mask: int32(op.Mask),
				w:    uint8(w),
				full: tr.Mask(op.Mask).Full(),
			})
		}
	}
	maskLanes = make([][]int, len(tr.Masks))
	for i, m := range tr.Masks {
		maskLanes[i] = m.Lanes()
	}
	return ops, maskLanes
}

// replayJobHist fills hist[mask*rows+physRow] with the exact histogram of
// one n-iteration epoch whose within-lane permutation is epoch0's, in
// closed-cycle form: one op-by-op iteration is replayed to record the
// orbit starts (the remaining n−1 iterations are reconstructed by
// accumulateClosedCycle), so the work is O(ops × min(cycleLen, n))
// regardless of epoch length. mass is the epoch-iterations the histogram
// stands for (replay accounting). s supplies the replay scratch; hist is
// zeroed here.
func (p *WearPlan) replayJobHist(s *engineScratch, epoch0, n int, mass uint64, hist []uint64) {
	sp := obs.StartSpan("core.hw.job")
	defer sp.End()
	obsHwReplayIters.Add(1)
	obsHwReplayItersSaved.Add(int64(mass) - 1)
	clear(hist)
	// The within permutation is loop-invariant across the epoch's
	// iterations: resolve each op's architectural row once.
	within := s.gen.withinAt(epoch0)
	for i, op := range p.ops {
		s.arch[i] = int32(within.Apply(int(op.row)))
	}
	s.hw.Reset()
	// Recording pass — iteration 0. Each op's physical row in this
	// iteration is its orbit start u; the renamer then holds the
	// iteration permutation σ.
	for i, op := range p.ops {
		if op.full {
			s.cyc.starts[i] = int32(s.hw.RenameOnWrite(int(s.arch[i])))
		} else {
			s.cyc.starts[i] = int32(s.hw.Lookup(int(s.arch[i])))
		}
	}
	s.cyc.decompose(s.hw)
	// The job's permutation is the trace-level one conjugated by the
	// within map, so its order must match the analytic period; a
	// mismatch means the closed form would be wrong.
	if s.cyc.period != p.cycle.Period {
		panic("core: +Hw job cycle period diverges from the analytic trace period")
	}
	accumulateClosedCycle(p.ops, s.cyc, uint64(n), p.rows, hist)
}

// addHist accumulates a per-(mask, physical row) histogram into a
// distribution's counts through one between-lane permutation, scaled by
// mult (the number of epochs sharing both the histogram and the
// permutation).
func addHist(hist []uint64, maskLanes [][]int, rows, lanes int, between *mapping.Perm, mult uint64, counts []uint64) {
	nMasks := len(maskLanes)
	for m := 0; m < nMasks; m++ {
		lanesOf := maskLanes[m]
		for r := 0; r < rows; r++ {
			c := hist[m*rows+r]
			if c == 0 {
				continue
			}
			c *= mult
			dst := counts[r*lanes:]
			for _, l := range lanesOf {
				dst[between.Apply(l)] += c
			}
		}
	}
}

// cycleScratch is per-worker scratch for the closed-cycle reconstruction:
// the per-op orbit starts recorded during iteration 0 and the cycle
// decomposition of the iteration permutation σ.
//
// Why this is exact: every full-mask RenameOnWrite is a transposition of
// renamer state slots (the written architectural slot and the free slot),
// so one whole iteration applies a fixed slot permutation σ to the state,
// and the state at iteration t is S_t = S_0 ∘ σ^t. The physical row op j
// touches at iteration t is the content of one fixed slot — free for
// renamed writes, the looked-up slot for the rest — under the state σ has
// partially advanced within the iteration, which is S_t(u_j) = σ^t(u_j)
// for a constant u_j (with S_0 the identity after Reset, u_j is simply
// the physical row op j touched at iteration 0). Each op therefore walks
// its own σ-orbit, one step per iteration: over n iterations it touches
// each of the L rows on that cycle ⌈(n−r)/L⌉ times (r = offset along the
// cycle). Summing those closed forms replaces the op-by-op replay of all
// n iterations — O(Σ_ops min(L, n)) instead of O(n × ops) — and, unlike
// scaling a whole-iteration period, never pays the lcm blow-up workspace
// reuse causes when σ splits into many coprime cycles.
type cycleScratch struct {
	starts []int32 // per-op orbit start u (phys row touched at iteration 0)
	orbit  []int32 // σ's cycles, concatenated
	start  []int32 // per phys row: index in orbit where its cycle begins
	length []int32 // per phys row: its cycle length
	pos    []int32 // per phys row: offset within its cycle
	seen   []bool
	period int // order of σ (lcm of cycle lengths)
}

func newCycleScratch(rows, ops int) *cycleScratch {
	return &cycleScratch{
		starts: make([]int32, ops),
		orbit:  make([]int32, rows),
		start:  make([]int32, rows),
		length: make([]int32, rows),
		pos:    make([]int32, rows),
		seen:   make([]bool, rows),
	}
}

// decompose reads the iteration permutation σ off a renamer that has run
// exactly one iteration from Reset (slot s now holds σ(s); the free slot
// is identified with the top physical row) and rebuilds the cycle index.
func (c *cycleScratch) decompose(hw *mapping.HwRenamer) {
	rows := len(c.orbit)
	for i := range c.seen {
		c.seen[i] = false
	}
	sigma := func(s int) int {
		if s == rows-1 {
			return hw.FreeRow()
		}
		return hw.Lookup(s)
	}
	c.period = 1
	idx := 0
	for s := 0; s < rows; s++ {
		if c.seen[s] {
			continue
		}
		first := idx
		for v := s; !c.seen[v]; v = sigma(v) {
			c.seen[v] = true
			c.orbit[idx] = int32(v)
			c.pos[v] = int32(idx - first)
			idx++
		}
		n := idx - first
		for i := first; i < idx; i++ {
			v := c.orbit[i]
			c.start[v] = int32(first)
			c.length[v] = int32(n)
		}
		if n > 1 {
			c.period = lcm(c.period, n)
		}
	}
}

// accumulateClosedCycle adds the exact n-iteration histogram of one epoch
// to hist[mask*rows+physRow]: op j touching orbit start u contributes its
// weight to row σ^t(u) for t = 0..n−1, which visits the L rows of u's
// cycle round-robin starting at u.
func accumulateClosedCycle(ops []wop, cyc *cycleScratch, n uint64, rows int, hist []uint64) {
	for i, op := range ops {
		u := cyc.starts[i]
		w := uint64(op.w)
		base := int(op.mask) * rows
		cs := int(cyc.start[u])
		L := uint64(cyc.length[u])
		steps := L
		if n < steps {
			steps = n
		}
		idx := int(cyc.pos[u])
		for r := uint64(0); r < steps; r++ {
			v := cyc.orbit[cs+idx]
			hist[base+int(v)] += w * ((n-1-r)/L + 1)
			idx++
			if idx == int(L) {
				idx = 0
			}
		}
	}
}

func lcm(a, b int) int {
	return a / gcd(a, b) * b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
