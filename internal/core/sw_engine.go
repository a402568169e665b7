// How the walker lands one software epoch group.
//
// Without hardware renaming, an epoch of n iterations contributes
// n · P_w M0 P_b to the distribution: the one-iteration write matrix M0
// permuted by the epoch's within-lane (rows) and between-lane (columns)
// maps. The contribution is linear in n and depends on the epoch only
// through its permutation pair, so the walker (walk.go) groups a
// segment's epochs by that pair and lands each group once, scaled by its
// summed iterations. core.sw.groups counts the groups landed and
// core.sw.memo_hits the epochs folded into an existing group.
//
// The landing itself is rank-1 for the full-mask part: a full lane mask
// is invariant under every between-lane permutation, so the full-mask
// part of M0 (one weight per row; see WearPlan.FullRowWrites) contributes
// weight·iters to every lane of one physical row. Those are accumulated
// as a per-physical-row weight — O(full rows) per group, no lane
// dimension at all — and expanded to whole rows once per segment. Only
// the CSR-packed partial-mask remainder pays a per-lane walk per group.
package core

import "pimendure/internal/obs"

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

// accumulateSwJob lands iters iterations under epoch's permutation pair:
// the full-mask row weights into rowW (between-invariant, expanded to
// whole rows later by expandRowWeights) and the CSR partial-mask entries
// straight into counts through the epoch's between permutation.
func accumulateSwJob(p *WearPlan, gen *permGen, epoch int, iters uint64, rowW, counts []uint64) {
	within := gen.withinAt(epoch)
	between := gen.betweenAt(epoch)
	for i, r := range p.fullRowIdx {
		rowW[within.Apply(int(r))] += uint64(p.fullRowW[i]) * iters
	}
	lanes := p.trace.Lanes
	for i, r := range p.csrRows {
		dst := counts[within.Apply(int(r))*lanes:]
		for e := p.csrPtr[i]; e < p.csrPtr[i+1]; e++ {
			dst[between.Apply(int(p.csrLane[e]))] += uint64(p.csrCnt[e]) * iters
		}
	}
}

// expandRowWeights adds each nonzero per-physical-row weight to every
// lane of its row — the deferred rank-1 completion of the full-mask
// accumulation — and resets the weight.
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
