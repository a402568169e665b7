// How the walker lands an epoch, software or +Hw.
//
// An epoch of n iterations contributes a per-(mask, physical row) write
// histogram, landed through the epoch's between-lane map. The histogram
// is a fixed base with its rows relabeled by the epoch's within-lane map:
//
//   - Software: n · P_w M0, the plan's one-iteration write matrix scaled
//     by the epoch length (WearPlan.sw).
//   - +Hw: the identity-map replay of an n-iteration epoch, run once per
//     length (hw_engine.go), relabeled by π̂ — the within map
//     on the architectural rows, with the renamer's spare row fixed. The
//     renamer never compares row addresses, so relabeling the
//     architectural rows relabels every physical write the same way.
//
// So both kinds land through one primitive, addHist: full-mask cells add
// into per-physical-row weights — a full lane mask is invariant under
// every between-lane permutation, so they need no lane dimension and are
// expanded into whole rows once per segment (expandRowWeights) — and
// partial-mask cells add into a dense histogram h. A partial mask m's
// lane set L_m lands under between map π as the indicator of π(L_m), so
// epochs e that share h land together as h[m,·] ⊗ w_m, with lane weights
// w_m[l] = Σₑ cₑ·[l ∈ πₑ(L_m)] summed by weighLanes, one call per between
// map. landPartialHist is that one partial landing, for every caller: it
// sorts each mask's weights into (lane, weight) pairs and scatters h's
// rows along them. Integer adds commute, so any grouping of the epochs is
// bit-identical. The walker lands a segment by whichever side has fewer
// distinct maps (walk.go):
//
//   - A between unit is one between map: its within groups each add their
//     base, scaled by the group's iterations (count under +Hw), and the
//     sum lands once through that map's lanes, every weight 1. Ra×St,
//     Ra×Bs and Bs×St pay one lane scatter per between map, not one per
//     epoch; Ra×Ra, whose epochs are unique on both sides, stays one
//     landing per epoch.
//   - A within unit is one within group (and length, under +Hw): its base
//     is added once, full-mask cells scaled by the group's iterations
//     (count), partial cells by 1, and lands once through the weights its
//     members' between maps sum to, cₑ the epoch length in software and 1
//     under +Hw. St×Ra and St×Bs land once per segment, and Bs×Ra once per
//     rotation.
//
// A mask whose lanes all take one weight — every between unit, the Stepper
// — folds it into the row's count and runs an add-only loop; other masks
// multiply each add by its lane's weight. A plan with no partial masks
// never needs a between map at all.
//
// core.sw.groups counts the relabeled bases a software run adds — one per
// within group of a between unit, one per within unit, or one per within
// map when the plan has no partial masks — and core.sw.memo_hits the
// software epochs folded into one of them; their sum is the software
// epochs.
package core

import (
	"math/bits"

	"pimendure/internal/mapping"
	"pimendure/internal/obs"
)

// Software-engine memoization accounting (no-ops until obs.Enable).
var (
	// obsSwGroups counts the distinct software landings the engine
	// actually summed.
	obsSwGroups = obs.GetCounter("core.sw.groups")
	// obsSwMemoHits counts software epochs folded into an already-seen
	// landing; groups + memo_hits equals the software epochs simulated.
	obsSwMemoHits = obs.GetCounter("core.sw.memo_hits")
)

// histBase is a sparse per-(mask, row) write histogram, split by mask
// kind: the base that a landing relabels by an epoch's within-lane map
// and scales. Full-mask cells land as per-physical-row weights,
// partial-mask cells through the epoch's between-lane map.
type histBase struct {
	full, part []hcell
}

// hcell is one nonzero cell of a histBase: c writes on every lane of
// mask mask at row row.
type hcell struct {
	row, mask int32
	c         uint64
}

// packHist returns the nonzero cells of a dense [mask*rows+row] histogram
// as a histBase backed by one allocation, counted before it is filled.
// Each kind's cells are in mask order, then row order.
func (p *WearPlan) packHist(hist []uint64, rows int) histBase {
	kinds := [2][]int32{p.fullMasks, p.partMasks}
	var n [2]int
	for k, masks := range kinds {
		for _, m := range masks {
			for _, c := range hist[int(m)*rows : int(m+1)*rows] {
				if c != 0 {
					n[k]++
				}
			}
		}
	}
	cells := make([]hcell, 0, n[0]+n[1])
	for _, masks := range kinds {
		for _, m := range masks {
			for r, c := range hist[int(m)*rows : int(m+1)*rows] {
				if c != 0 {
					cells = append(cells, hcell{row: int32(r), mask: m, c: c})
				}
			}
		}
	}
	return histBase{full: cells[:n[0]], part: cells[n[0]:]}
}

// addHist adds b with each row r relabeled to within(r), rows past the
// map's end (the +Hw spare row) staying put: full-mask cells times full
// into the per-physical-row weights rowW, partial-mask cells times part
// into hist[mask*rows+physRow].
func (p *WearPlan) addHist(b *histBase, within *mapping.Perm, full, part uint64, rowW, hist []uint64) {
	arch := within.Len()
	for _, e := range b.full {
		r := int(e.row)
		if r < arch {
			r = within.Apply(r)
		}
		rowW[r] += e.c * full
	}
	for _, e := range b.part {
		r := int(e.row)
		if r < arch {
			r = within.Apply(r)
		}
		hist[int(e.mask)*p.rows+r] += e.c * part
	}
}

// laneWeights is the lane side of a partial landing: for each partial
// mask of the plan, the lanes its histogram rows land on and the weight
// each lane takes. A landing sums weights through weighLanes, once per
// between map it covers, and landPartialHist consumes them.
type laneWeights struct {
	// The weights being summed, [i*lanes+lane] for the plan's i-th partial
	// mask, with a bitmap [i*words+word] of the lanes that hold one; both
	// are kept zeroed between landings.
	dense, bits []uint64
	// The summed weights as one laneSet of sorted (lane, weight) pairs per
	// partial mask, packed back to back in lane and weight.
	sets   []laneSet
	lane   []int32
	weight []uint64
}

// laneSet is one partial mask's sorted landing lanes and their weights.
// When every lane takes the same weight, uniform holds it (else 0).
type laneSet struct {
	lane    []int32
	weight  []uint64
	uniform uint64
}

// weighLanes adds weight c to the lanes each partial mask's lane set
// takes under the between-lane map between.
func (p *WearPlan) weighLanes(lw *laneWeights, between *mapping.Perm, c uint64) {
	lanes := p.trace.Lanes
	words := (lanes + 63) / 64
	for i, m := range p.partMasks {
		dense, bm := lw.dense[i*lanes:(i+1)*lanes], lw.bits[i*words:(i+1)*words]
		for _, l := range p.maskLanes[m] {
			t := between.Apply(l)
			dense[t] += c
			bm[t>>6] |= 1 << (t & 63)
		}
	}
}

// sortLanes turns the summed weights into one laneSet per partial mask,
// reading the lanes off the bitmap in ascending order and zeroing what it
// reads. The sets are packed back to back in one compact array (a
// fixed-stride stretch per mask made the scatter measurably slower); a
// set stays valid when a later append moves the arrays, since the old
// arrays are never written again.
func (p *WearPlan) sortLanes(lw *laneWeights) {
	lanes := p.trace.Lanes
	words := (lanes + 63) / 64
	lane, weight := lw.lane[:0], lw.weight[:0]
	lw.sets = lw.sets[:0]
	for i := range p.partMasks {
		dense, bm := lw.dense[i*lanes:(i+1)*lanes], lw.bits[i*words:(i+1)*words]
		first := len(lane)
		var u uint64
		for j, word := range bm {
			bm[j] = 0
			for ; word != 0; word &= word - 1 {
				l := j<<6 | bits.TrailingZeros64(word)
				c := dense[l]
				dense[l] = 0
				if len(lane) == first {
					u = c
				} else if c != u {
					u = 0
				}
				lane = append(lane, int32(l))
				weight = append(weight, c)
			}
		}
		lw.sets = append(lw.sets, laneSet{lane: lane[first:], weight: weight[first:], uniform: u})
	}
	lw.lane, lw.weight = lane, weight
}

// landPartialHist is the one partial-mask landing: it scatters each
// partial-mask histogram row h[m,·] over the lanes summed into lw, as
// h[m,·] ⊗ w_m. It sorts the weights into laneSets once per call,
// resetting lw for the next landing, then walks the physical rows in
// order, so the scatter runs along each counts row in ascending lane
// order with no per-cell permutation lookup. A mask whose lanes all take
// one weight folds it into the row's count and only adds.
func (p *WearPlan) landPartialHist(lw *laneWeights, hist []uint64, counts []uint64) {
	p.sortLanes(lw)
	lanes, rows := p.trace.Lanes, p.rows
	for r := 0; r < rows; r++ {
		dst := counts[r*lanes : (r+1)*lanes]
		for i, m := range p.partMasks {
			c := hist[int(m)*rows+r]
			if c == 0 {
				continue
			}
			set := &lw.sets[i]
			if set.uniform == 0 {
				set.scatter(dst, c)
				continue
			}
			c *= set.uniform
			for _, l := range set.lane {
				dst[l] += c
			}
		}
	}
}

// scatter adds c times each lane's weight to the lanes of dst. It stays
// out of line: inlined, it costs the add-only loop beside it a register
// and a reload per lane.
//
//go:noinline
func (set *laneSet) scatter(dst []uint64, c uint64) {
	ws := set.weight[:len(set.lane)]
	for j, l := range set.lane {
		dst[l] += c * ws[j]
	}
}

// expandRowWeights adds each nonzero per-physical-row weight to every
// lane of its row — the deferred rank-1 completion of the full-mask
// landings — and resets the weight.
func expandRowWeights(rowW []uint64, lanes int, counts []uint64) {
	for pr, c := range rowW {
		if c == 0 {
			continue
		}
		rowW[pr] = 0
		row := counts[pr*lanes : pr*lanes+lanes]
		for l := range row {
			row[l] += c
		}
	}
}
