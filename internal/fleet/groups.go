package fleet

import (
	"fmt"
	"sort"
	"sync"
)

// Groups is the order-statistic collapse of a write distribution: cells
// with identical accumulated write counts are interchangeable under the
// iid-endurance model, so a device draw needs one minimum per distinct
// count, not one endurance per cell. Write distributions are highly
// degenerate — a deterministic strategy on the paper-scale 1024×1024
// array produces tens to ~1000 distinct counts across its million
// cells — which is what turns an O(cells) trial into an O(groups) one
// before screening shrinks it further.
//
// The group set is immutable after construction and safe to share
// across concurrent Survive calls; pim builds one per strategy and
// draws every technology × σ point of a fleet sweep from it.
// Hazard-inverse tables accumulate lazily per σ under the internal
// mutex, which is why GroupCounts hands out a pointer.
type Groups struct {
	// Iterations is the simulated-iteration count the rates are
	// normalized by.
	Iterations int
	// Cells is the number of written cells (unwritten cells never fail
	// and are dropped).
	Cells int
	// Rate holds each group's per-iteration write rate, sorted
	// descending — Rate[0] is the most-stressed, earliest-failing
	// group, the denominator of the deterministic Eq. 4 lifetime.
	Rate []float64
	// Size holds the number of cells in each group, parallel to Rate.
	Size []float64

	// mu guards the lazily built per-σ hazard-inverse tables.
	mu     sync.Mutex
	tables map[float64]*hazardTable
}

// MaxRate returns the highest per-iteration write rate — the
// denominator of the paper's deterministic Eq. 4 lifetime.
func (g *Groups) MaxRate() float64 {
	if len(g.Rate) == 0 {
		return 0
	}
	return g.Rate[0]
}

// GroupCounts collapses a write-count distribution accumulated over
// `iterations` iterations into its distinct-count groups. Zero counts
// are dropped, since unwritten cells never fail; an all-zero
// distribution is an error.
func GroupCounts(counts []uint64, iterations int) (*Groups, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("fleet: iterations must be positive, got %d", iterations)
	}
	sizes := make(map[uint64]float64)
	written := 0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		sizes[c]++
		written++
	}
	if written == 0 {
		return nil, fmt.Errorf("fleet: distribution has no written cells")
	}
	uniq := make([]uint64, 0, len(sizes))
	for c := range sizes {
		uniq = append(uniq, c)
	}
	// Descending count = descending rate.
	sort.Slice(uniq, func(i, k int) bool { return uniq[i] > uniq[k] })
	g := &Groups{
		Iterations: iterations,
		Cells:      written,
		Rate:       make([]float64, len(uniq)),
		Size:       make([]float64, len(uniq)),
	}
	for i, c := range uniq {
		g.Rate[i] = float64(c) / float64(iterations)
		g.Size[i] = sizes[c]
	}
	return g, nil
}
