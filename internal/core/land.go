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
// partial-mask cells add into a dense histogram that landPartialHist
// scatters through the between map. Epochs sharing a between map sum
// their histograms first and scatter once, so a between group of many
// within maps (Ra×St, Ra×Bs, Bs×St) pays one lane scatter, not one per
// map; a plan with no partial masks never needs a between map at all.
//
// core.sw.groups counts the distinct software landings summed — (within,
// between) pairs, or within maps alone when the plan has no partial masks
// — and core.sw.memo_hits the software epochs folded into one of them.
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

// addHist adds mult copies of b with each row r relabeled to within(r),
// rows past the map's end (the +Hw spare row) staying put: full-mask
// cells into the per-physical-row weights rowW, partial-mask cells into
// hist[mask*rows+physRow].
func (p *WearPlan) addHist(b *histBase, within *mapping.Perm, mult uint64, rowW, hist []uint64) {
	arch := within.Len()
	for _, e := range b.full {
		r := int(e.row)
		if r < arch {
			r = within.Apply(r)
		}
		rowW[r] += e.c * mult
	}
	for _, e := range b.part {
		r := int(e.row)
		if r < arch {
			r = within.Apply(r)
		}
		hist[int(e.mask)*p.rows+r] += e.c * mult
	}
}

// landPartialHist scatters a histogram's partial-mask rows over their
// lanes of counts, through one between-lane permutation. Once per call it
// permutes each partial mask's lane set and sorts it through a lane
// bitmap in s; it then walks the physical rows in order, adding each
// row's count to its mask's sorted lanes, so the scatter runs along each
// counts row in ascending lane order with no per-cell permutation lookup.
func (p *WearPlan) landPartialHist(s *engineScratch, hist []uint64, between *mapping.Perm, counts []uint64) {
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
			for _, l := range s.sorted[s.sortedOff[i]:s.sortedOff[i+1]] {
				dst[l] += c
			}
		}
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
