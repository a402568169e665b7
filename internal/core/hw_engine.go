// How the walker gets a +Hw epoch's histogram.
//
// Epochs of a +Hw simulation are independent: the hardware renamer is
// Reset() at every recompile boundary, so an epoch's per-(mask, physical
// row) histogram depends only on (a) the epoch's within-lane permutation
// restricted to the trace's logical rows and (b) the epoch length in
// iterations. The between-lane permutation only relabels columns when the
// histogram lands in the distribution.
//
// Two facts make every +Hw epoch cheap:
//
//   - One replay per epoch length: the renamer swaps each written row
//     with the spare and never compares row addresses, so relabeling the
//     architectural rows by the within map π relabels every physical
//     write by π̂ (π with the spare row fixed). An epoch's histogram is
//     therefore the identity-map histogram of its length with rows
//     relabeled by π̂ — the same permuted landing a software epoch gets
//     (land.go). A run has at most two epoch lengths (its recompile
//     period and a short final epoch), so the walker replays each once
//     when it starts and lands every epoch from those replays; a Stepper
//     keeps the replay of the last length it stepped. Nothing is stored
//     on the plan, which stays immutable.
//
//   - Closed-cycle replay: each iteration applies a fixed permutation σ
//     to the renamer state (every full-mask write is a transposition of
//     state slots sharing the free slot), so the physical row an op
//     touches at iteration t is σ^t(u) for a fixed orbit start u. A
//     replay of n iterations runs exactly one iteration (recording each
//     op's u and σ itself) and reconstructs the full histogram in closed
//     form: with n = q·L + s on an op's L-cycle, the op adds q laps to
//     the whole cycle and one more visit to the s rows from its start,
//     which are at most three contiguous ranges of the cycle — O(1)
//     difference-array updates per op and one prefix pass per mask, so a
//     replay costs O(ops + masks × rows) whatever its length and cycle
//     structure.
package core

import (
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

// replayJobHist returns the exact histogram of one n-iteration epoch
// under the identity within map, in closed-cycle form: one op-by-op
// iteration is replayed to record the orbit starts, and
// accumulateClosedCycle reconstructs the whole epoch from them in
// O(ops + masks × rows), regardless of epoch length. s supplies the
// replay scratch and the dense histogram it packs. The replay counts as
// one recorded iteration and n−1 saved ones; the callers count the
// epochs it serves beyond the first as memo hits.
func (p *WearPlan) replayJobHist(s *engineScratch, n int) histBase {
	sp := obs.StartSpan("core.hw.job")
	defer sp.End()
	obsHwReplays.Add(1)
	obsHwReplayIters.Add(1)
	obsHwReplayItersSaved.Add(int64(n - 1))
	p.ensureHw(s)
	s.hw.Reset()
	// Recording pass — iteration 0. Each op's physical row in this
	// iteration is its orbit start u; the renamer then holds the
	// iteration permutation σ: slot v holds σ(v), with the free slot
	// identified with the top physical row.
	for i, op := range p.ops {
		if op.full {
			s.cyc.starts[i] = int32(s.hw.RenameOnWrite(int(op.row)))
		} else {
			s.cyc.starts[i] = int32(s.hw.Lookup(int(op.row)))
		}
	}
	free := p.rows - 1
	s.cyc.decompose(func(v int) int {
		if v == free {
			return s.hw.FreeRow()
		}
		return s.hw.Lookup(v)
	})
	accumulateClosedCycle(p.ops, s.cyc, uint64(n), p.rows, s.hist)
	return p.packHist(s.hist, p.rows)
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
// masks × rows) per replay instead of the O(n × ops) op-by-op one, and,
// unlike scaling a whole-iteration period, free of the lcm blow-up
// workspace reuse causes when σ splits into many coprime cycles.
type cycleScratch struct {
	starts []int32  // per-op orbit start u (phys row touched at iteration 0)
	orbit  []int32  // σ's cycles, concatenated
	start  []int32  // per phys row: index in orbit where its cycle begins
	length []int32  // per phys row: its cycle length
	pos    []int32  // per phys row: offset within its cycle
	laps   []uint64 // per cycle, at its start index: whole laps q of the replay
	rest   []int32  // per cycle, at its start index: leftover steps s
	diff   []uint64 // [mask*(rows+1)+orbit index] visit-count differences
	seen   []bool
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
