// How the walker lands software epochs.
//
// Without hardware renaming, an epoch of n iterations contributes
// n · P_w M0 P_b to the distribution: the one-iteration write matrix M0
// permuted by the epoch's within-lane (rows) and between-lane (columns)
// maps. The contribution is linear in n and depends on the epoch only
// through its permutation pair, and the between map acts last, on whole
// lane columns. So the walker (walk.go) groups a segment's epochs by
// between permutation, and within each group sums one per-(mask,
// physical row) histogram: every distinct within map adds its members'
// summed iterations times the plan's write-matrix entries, permuted by
// that map (addSwHist). The histogram has the shape a +Hw replay job
// produces (hw_engine.go) and lands the same way, once per group:
// landFullHist adds the full-mask rows as per-row weights — a full lane
// mask is invariant under every between-lane permutation, so they need no
// lane dimension and are expanded to whole rows once per segment — and
// landPartialHist scatters the partial-mask rows through the group's
// between map. A between group of many within maps (Ra×St, Ra×Bs, Bs×St)
// therefore pays one lane scatter, not one per map.
//
// core.sw.groups counts the distinct (within, between) pairs summed and
// core.sw.memo_hits the epochs folded into an existing pair.
package core

import (
	"pimendure/internal/mapping"
	"pimendure/internal/obs"
)

// Software-engine memoization accounting (no-ops until obs.Enable).
var (
	// obsSwGroups counts unique (within, between) permutation-pair groups
	// the software engine actually accumulated.
	obsSwGroups = obs.GetCounter("core.sw.groups")
	// obsSwMemoHits counts software epochs folded into an already-seen
	// permutation-pair group; groups + memo_hits equals the software
	// epochs simulated.
	obsSwMemoHits = obs.GetCounter("core.sw.memo_hits")
)

// addSwHist adds iters iterations of the one-iteration write matrix,
// rows permuted by within, to hist[mask*rows+physRow].
func (p *WearPlan) addSwHist(within *mapping.Perm, iters uint64, hist []uint64) {
	for _, e := range p.entries {
		hist[int(e.mask)*p.rows+within.Apply(int(e.row))] += uint64(e.w) * iters
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
