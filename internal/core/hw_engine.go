// How the walker lands one +Hw epoch.
//
// Epochs of a +Hw simulation are independent: the hardware renamer is
// Reset() at every recompile boundary, so the per-epoch physical-row
// histogram hist[mask][physRow] depends only on (a) the epoch's
// within-lane permutation restricted to the trace's logical rows and
// (b) the epoch length in iterations. The between-lane permutation only
// relabels columns when the histogram lands in the distribution.
//
// The walker (walk.go) exploits this three ways:
//
//   - Memoization: epochs are grouped into replay jobs by (within
//     permutation, length). Under St-within every full-length epoch
//     shares one job (one replay for the whole run); under Bs-within the
//     rotation family cycles with period archRows/gcd(step, archRows), so
//     jobs recur whenever the period divides into the epoch count;
//     Ra-within epochs are (almost always) distinct. Each job is replayed
//     once (replayJobHist) and landed into every member epoch.
//
//   - Closed-cycle replay: each iteration applies a fixed permutation σ
//     to the renamer state (every full-mask write is a transposition of
//     state slots sharing the free slot), so the physical row an op
//     touches at iteration t is σ^t(u) for a fixed orbit start u. A job
//     of n iterations replays exactly one iteration (recording each
//     op's u and σ itself) and reconstructs the full histogram in closed
//     form: with n = q·L + s on an op's L-cycle, the op adds q laps to
//     the whole cycle and one more visit to the s rows from its start,
//     which are at most three contiguous ranges of the cycle — O(1)
//     difference-array updates per op and one prefix pass per mask, so a
//     job costs O(ops + masks × rows) whatever its length and cycle
//     structure. This is what makes long recompile epochs (the paper's
//     RecompileEvery=10 000 sweeps) cheap even under Ra-within, where
//     memoization cannot group anything. The analytic period of σ
//     (mapping.AnalyzeRenamerCycle) cross-checks every job's detected
//     permutation at runtime.
//
//   - Rank-1 landing: a full lane mask is invariant under every
//     between-lane permutation, so a histogram's full-mask rows land as
//     per-physical-row weights (landFullHist) — scaled by the job's
//     member count in the segment, with no lane dimension and no grouping
//     by between map — that the walker expands into whole rows once per
//     segment. Only the partial-mask rows are scattered, once per
//     distinct between permutation among the job's members, through that
//     map's sorted lane sets (landPartialHist). Software groups and the
//     Stepper land their histograms through the same two primitives.
package core

import (
	"math/bits"

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

// replayJobHist writes into hist[mask*rows+physRow] the exact histogram
// of one n-iteration epoch whose within-lane permutation is epoch0's, in
// closed-cycle form: one op-by-op iteration is replayed to record the
// orbit starts, and accumulateClosedCycle reconstructs the whole epoch
// from them in O(ops + masks × rows), regardless of epoch length. mass is
// the epoch-iterations the histogram stands for (replay accounting). s
// supplies the replay scratch; every entry of hist is overwritten.
func (p *WearPlan) replayJobHist(s *engineScratch, epoch0, n int, mass uint64, hist []uint64) {
	sp := obs.StartSpan("core.hw.job")
	defer sp.End()
	obsHwReplayIters.Add(1)
	obsHwReplayItersSaved.Add(int64(mass) - 1)
	// The within permutation is loop-invariant across the epoch's
	// iterations: resolve each op's architectural row once.
	within := s.gen.withinAt(epoch0)
	for i, op := range p.ops {
		s.arch[i] = int32(within.Apply(int(op.row)))
	}
	s.hw.Reset()
	// Recording pass — iteration 0. Each op's physical row in this
	// iteration is its orbit start u; the renamer then holds the
	// iteration permutation σ: slot v holds σ(v), with the free slot
	// identified with the top physical row.
	for i, op := range p.ops {
		if op.full {
			s.cyc.starts[i] = int32(s.hw.RenameOnWrite(int(s.arch[i])))
		} else {
			s.cyc.starts[i] = int32(s.hw.Lookup(int(s.arch[i])))
		}
	}
	free := p.rows - 1
	s.cyc.decompose(func(v int) int {
		if v == free {
			return s.hw.FreeRow()
		}
		return s.hw.Lookup(v)
	})
	// The job's permutation is the trace-level one conjugated by the
	// within map, so its order must match the analytic period; a
	// mismatch means the closed form would be wrong.
	if s.cyc.period != p.cycle.Period {
		panic("core: +Hw job cycle period diverges from the analytic trace period")
	}
	accumulateClosedCycle(p.ops, s.cyc, uint64(n), p.rows, hist)
}

// landFullHist adds mult copies of a job histogram's full-mask rows to
// the per-physical-row weights rowW — the rank-1 part of a +Hw landing,
// the same for every between-lane permutation and expanded into whole
// rows later by expandRowWeights.
func (p *WearPlan) landFullHist(hist []uint64, mult uint64, rowW []uint64) {
	for _, m := range p.fullMasks {
		for r, c := range hist[int(m)*p.rows : int(m+1)*p.rows] {
			rowW[r] += c * mult
		}
	}
}

// landPartialHist scatters mult copies of a histogram's partial-mask
// rows over their lanes of counts, through one between-lane permutation.
// Once per call it permutes each partial mask's lane set and sorts it
// through a lane bitmap in s; it then walks the physical rows in order,
// adding each row's count to its mask's sorted lanes, so the scatter runs
// along each counts row in ascending lane order with no per-cell
// permutation lookup.
func (p *WearPlan) landPartialHist(s *engineScratch, hist []uint64, between *mapping.Perm, mult uint64, counts []uint64) {
	if len(p.partMasks) == 0 {
		return
	}
	s.sorted, s.sortedOff = s.sorted[:0], s.sortedOff[:0]
	for _, m := range p.partMasks {
		s.sortedOff = append(s.sortedOff, int32(len(s.sorted)))
		for _, l := range p.maskLanes[m] {
			t := between.Apply(l)
			s.laneBits[t>>6] |= 1 << (t & 63)
		}
		for i, word := range s.laneBits {
			s.laneBits[i] = 0
			for ; word != 0; word &= word - 1 {
				s.sorted = append(s.sorted, int32(i<<6|bits.TrailingZeros64(word)))
			}
		}
	}
	s.sortedOff = append(s.sortedOff, int32(len(s.sorted)))
	lanes, rows := p.trace.Lanes, p.rows
	for r := 0; r < rows; r++ {
		dst := counts[r*lanes : (r+1)*lanes]
		for i, m := range p.partMasks {
			c := hist[int(m)*rows+r]
			if c == 0 {
				continue
			}
			c *= mult
			for _, l := range s.sorted[s.sortedOff[i]:s.sortedOff[i+1]] {
				dst[l] += c
			}
		}
	}
}

// cycleScratch is per-worker scratch for the closed-cycle reconstruction:
// the per-op orbit starts recorded during iteration 0, the cycle
// decomposition of the iteration permutation σ, and the per-mask
// difference arrays the reconstruction sums into.
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
// its own σ-orbit, one step per iteration: over n = q·L + s iterations it
// touches each of the L rows on its cycle q times, plus once more each of
// the s rows that follow its start. Laid out in orbit order those s rows
// are one range of the cycle's block, or two when they wrap past its end,
// so every op is a constant number of difference-array updates and one
// prefix pass per mask turns the sums into the histogram — O(ops +
// masks × rows) per job instead of the O(n × ops) op-by-op replay, and,
// unlike scaling a whole-iteration period, free of the lcm blow-up
// workspace reuse causes when σ splits into many coprime cycles.
type cycleScratch struct {
	starts []int32  // per-op orbit start u (phys row touched at iteration 0)
	orbit  []int32  // σ's cycles, concatenated
	start  []int32  // per phys row: index in orbit where its cycle begins
	length []int32  // per phys row: its cycle length
	pos    []int32  // per phys row: offset within its cycle
	laps   []uint64 // per cycle, at its start index: whole laps q of the job
	rest   []int32  // per cycle, at its start index: leftover steps s
	diff   []uint64 // [mask*(rows+1)+orbit index] visit-count differences
	seen   []bool
	period int // order of σ (lcm of cycle lengths)
}

func newCycleScratch(rows, ops, masks int) *cycleScratch {
	return &cycleScratch{
		starts: make([]int32, ops),
		orbit:  make([]int32, rows),
		start:  make([]int32, rows),
		length: make([]int32, rows),
		pos:    make([]int32, rows),
		laps:   make([]uint64, rows),
		rest:   make([]int32, rows),
		diff:   make([]uint64, masks*(rows+1)),
		seen:   make([]bool, rows),
	}
}

// decompose rebuilds the cycle index of the permutation σ of the rows
// (slot v maps to sigma(v)).
func (c *cycleScratch) decompose(sigma func(v int) int) {
	rows := len(c.orbit)
	clear(c.seen)
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

// accumulateClosedCycle writes the exact n-iteration histogram of one
// epoch to hist[mask*rows+physRow], every entry: op j with orbit start u
// contributes its weight to row σ^t(u) for t = 0..n−1, which visits the L
// rows of u's cycle round-robin starting at u. With n = q·L + s that is
// q visits to the whole cycle plus one to each of the s rows from u on,
// each a range update of the mask's difference array in orbit order
// (uint64 differences wrap, and the prefix sums come out exact).
func accumulateClosedCycle(ops []wop, cyc *cycleScratch, n uint64, rows int, hist []uint64) {
	// Laps and leftover steps per cycle: one division per cycle, not per op.
	for i := 0; i < rows; {
		L := cyc.length[cyc.orbit[i]]
		cyc.laps[i], cyc.rest[i] = n/uint64(L), int32(n%uint64(L))
		i += int(L)
	}
	stride := rows + 1
	for i, op := range ops {
		u := cyc.starts[i]
		first := int(cyc.start[u])
		end := first + int(cyc.length[u])
		d := cyc.diff[int(op.mask)*stride:]
		w := uint64(op.w)
		if q := cyc.laps[first]; q != 0 {
			d[first] += w * q
			d[end] -= w * q
		}
		if s := int(cyc.rest[first]); s != 0 {
			from := first + int(cyc.pos[u])
			to := from + s
			d[from] += w
			if to <= end {
				d[to] -= w
			} else { // wraps past the cycle's end
				d[end] -= w
				d[first] += w
				d[to-(end-first)] -= w
			}
		}
	}
	// One prefix pass per mask, which also re-zeroes the differences.
	for m := 0; m < len(hist)/rows; m++ {
		d := cyc.diff[m*stride : (m+1)*stride]
		h := hist[m*rows : (m+1)*rows]
		var acc uint64
		for i, v := range cyc.orbit {
			acc += d[i]
			d[i] = 0
			h[v] = acc
		}
		d[rows] = 0
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
