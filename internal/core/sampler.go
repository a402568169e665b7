// Wear telemetry sampling: the per-epoch hook that turns a wear
// simulation from an end-of-run aggregate into a trajectory. The paper's
// argument is exactly such a trajectory — per-cell writes accumulate
// epoch by epoch until the hottest cell crosses endurance (§5) — and the
// sampler records it live: distribution statistics per sample into an
// obs.Series, plus a downsampled heatmap snapshot for the -serve
// /wear.png endpoint.
package core

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"pimendure/internal/lifetime"
	"pimendure/internal/obs"
	"pimendure/internal/render"
	"pimendure/internal/stats"
)

// WearSeriesColumns are the columns every wear series records, in order:
// the epoch index, iterations completed, hottest/mean/p99 cell writes,
// the write-distribution coefficient of variation, the number of cells
// whose end-of-run projection crosses the endurance threshold, and the
// live Eq. 4 iterations-to-failure projection.
var WearSeriesColumns = []string{
	"epoch", "iterations", "max_writes", "mean_writes", "p99_writes",
	"cov", "projected_dead_cells", "projected_iters_to_failure",
}

// wearSnapshotDim caps the /wear.png snapshot resolution per axis.
const wearSnapshotDim = 128

// WearSampler observes a running simulation at recompile-epoch
// granularity. Attach one via SimConfig.Sampler; the engines call Sample
// after accumulating each due epoch, in epoch order, with the
// distribution as accumulated so far. A sampler must not be shared
// between concurrent simulations (each records one trajectory), but
// Sample itself is safe to call concurrently with the HTTP handlers
// reading the sampler.
type WearSampler struct {
	// Every is the sampling cadence in recompile epochs: epochs 0,
	// Every, 2·Every, … are sampled, plus always the final epoch (so the
	// last sample reproduces the finished distribution). Values ≤ 1
	// sample every epoch.
	Every int
	// Endurance is the cell endurance (writes to failure) behind the
	// projected_dead_cells and projected_iters_to_failure columns; 0
	// records NaN projections.
	Endurance float64

	series *obs.Series

	// Percentile state, reused across samples. Cell counts grow close to
	// linearly in iterations, so the previous sample's p99 scaled by the
	// iteration ratio predicts the next one well; Sample builds an exact
	// per-value histogram over a window around that prediction inside the
	// fused statistics pass, alongside a radix histogram that resolves a
	// window miss exactly (stats.PercentileFromHist) without a second
	// scan over the counts.
	// The engines call Sample serially, so no lock is needed; mu only
	// guards the handoff of the published grid and totalIts to concurrent
	// readers.
	work      []uint64
	prevP99   uint64
	prevMax   uint64
	prevIters int

	// snapWanted demand-paces the heatmap rebuild: WritePNG sets it, and
	// the next Sample refreshes the snapshot only if it is set (or no
	// snapshot exists yet). A run nobody is watching through /wear.png
	// pays for the statistics row but not for heatmap rebuilds.
	snapWanted atomic.Bool

	mu       sync.Mutex
	grid     *stats.Grid // latest normalized heatmap snapshot
	totalIts int         // the run's configured iteration count
}

// NewWearSampler creates a sampler recording into a fresh obs.Series of
// the given name (registered process-wide, so -serve's /series endpoint
// and Run.Finish's series_<name>.{csv,json} artifacts see it) and
// attaches its heatmap to the series, which /wear.png?name= serves.
func NewWearSampler(name string, every int, endurance float64) *WearSampler {
	s := &WearSampler{
		Every:     every,
		Endurance: endurance,
		series:    obs.NewSeries(name, WearSeriesColumns...),
	}
	s.series.SetPNG(s.WritePNG)
	return s
}

// Series returns the trajectory recorded so far.
func (s *WearSampler) Series() *obs.Series { return s.series }

// due reports whether the given epoch should be sampled; lastEpoch is
// the run's final epoch index, which is always sampled.
func (s *WearSampler) due(epoch, lastEpoch int) bool {
	if epoch == lastEpoch {
		return true
	}
	every := s.Every
	if every <= 1 {
		return true
	}
	return epoch%every == 0
}

// Sample records one trajectory point: epoch (0-based), the iterations
// accumulated so far, and the distribution as accumulated up to and
// including that epoch. The engines call it — in epoch order — so dist
// is a true prefix of the final distribution; the last sample's
// max_writes equals the finished WriteDist's Max.
func (s *WearSampler) Sample(epoch, iterations int, dist *WriteDist) {
	counts := dist.Counts
	n := len(counts)
	s.mu.Lock()
	total := s.totalIts
	s.mu.Unlock()
	countDead := s.Endurance > 0 && iterations > 0
	scale := 1.0
	if countDead && total > iterations {
		scale = float64(total) / float64(iterations)
	}
	// Sampling runs on the engine's epoch path, so max, the exact sums
	// behind mean and CoV, the dead-cell projection, the p99 window
	// histogram AND the radix fallback histogram are all fused into a
	// single pass — a window miss resolves the exact p99 from the
	// already-built radix histogram (stats.PercentileFromHist) instead of
	// rescanning the counts. Mean and CoV are finished from the same
	// integer sums as stats.Summarize's (stats.Moments), so a sample of
	// the finished distribution reads exactly its Summary's.
	const p99Window = 4096
	var pred uint64
	if s.prevIters > 0 {
		pred = uint64(float64(s.prevP99) * float64(iterations) / float64(s.prevIters))
	}
	var vlo uint64
	if pred > p99Window/2 {
		vlo = pred - p99Window/2
	}
	// The radix shift comes from the predicted maximum (previous sample's
	// max scaled by the iteration ratio). An understated prediction only
	// clamps overshooting values into the top bucket — PercentileFromHist
	// still resolves the quantile exactly (see stats.RadixShift).
	var shift uint
	if s.prevIters > 0 {
		shift = stats.RadixShift(uint64(float64(s.prevMax) * float64(iterations) / float64(s.prevIters)))
	}
	var win [p99Window]uint32
	var rhist [stats.RadixBuckets]uint32
	below := 0
	var maxC uint64
	var m stats.Moments
	var dead float64
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
		if c >= vlo {
			if off := c - vlo; off < p99Window {
				win[off]++
			}
		} else {
			below++
		}
		if b := c >> shift; b < stats.RadixBuckets {
			rhist[b]++
		} else {
			rhist[stats.RadixBuckets-1]++
		}
		m = m.Add(c)
		if countDead && float64(c)*scale >= s.Endurance {
			dead++
		}
	}
	mean, cov := m.MeanCoV(n)
	p99 := math.NaN()
	if n > 0 {
		k := int(0.99 * float64(n-1)) // stats' nearest-rank convention
		hit := false
		if rem := k - below; rem >= 0 {
			for i := 0; i < p99Window; i++ {
				if rem -= int(win[i]); rem < 0 {
					p99 = float64(vlo + uint64(i))
					hit = true
					break
				}
			}
		}
		if !hit {
			p99, s.work = stats.PercentileFromHist(counts, 0.99, &rhist, shift, s.work)
		}
		s.prevP99 = uint64(p99)
		s.prevMax = maxC
		s.prevIters = iterations
	}
	proj := lifetime.ProjectIterations(float64(maxC), int64(iterations), s.Endurance)

	if s.series.Len() == 0 || s.snapWanted.Swap(false) {
		s.snapshot(dist)
	}
	s.series.Add(float64(epoch), float64(iterations), float64(maxC), mean, p99, cov, dead, proj)
}

// snapshot rebuilds the published /wear.png grid from the current
// distribution — mean-pooled down to the snapshot cap and normalized by
// stats.Heatmap — and publishes it under the lock. A fresh grid is built
// each time so readers holding the previous snapshot never see it
// mutate.
func (s *WearSampler) snapshot(dist *WriteDist) {
	g, err := stats.Heatmap(dist.Counts, dist.Rows, dist.Lanes, wearSnapshotDim)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.grid = g
	s.mu.Unlock()
}

// bind stamps the run's configured iteration total (for the end-of-run
// dead-cell projection). The engines call it before the first sample.
func (s *WearSampler) bind(totalIterations int) {
	s.mu.Lock()
	s.totalIts = totalIterations
	s.mu.Unlock()
}

// WritePNG renders the latest heatmap snapshot — the -serve /wear.png
// payload. It errors until the first sample has been recorded. Each call
// also requests a refresh: the snapshot is rebuilt on the next sample
// after a request, so repeated polling tracks the live run while an
// unwatched run never pays for rebuilds past the first.
func (s *WearSampler) WritePNG(w io.Writer) error {
	s.snapWanted.Store(true)
	s.mu.Lock()
	g := s.grid
	s.mu.Unlock()
	if g == nil {
		return fmt.Errorf("core: wear sampler has no samples yet")
	}
	return render.HeatmapPNG(w, g, 4)
}
