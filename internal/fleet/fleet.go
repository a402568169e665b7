// Package fleet estimates fleet-survival lifetime quantiles — B1/B10/B50,
// the iterations by which 1%/10%/50% of a device population has seen its
// first cell failure — from a finished write distribution, at millions of
// simulated devices per second on a single core.
//
// It is the repository's one model of endurance that varies across cells
// (the paper's §4 caveat). pim.Fleet runs it for cmd/fleet, the job
// server's POST /fleet, the benchmark's fleet_study workload and the
// report's E18 variability table.
//
// The naive Monte Carlo (one endurance draw per written cell per device,
// kept as the oracle Model.ReferenceSample) costs O(cells) per device: a
// million math.Exp calls per draw at paper scale. The engine stacks
// three reductions on top of it:
//
//  1. Order-statistic collapse (Groups): cells with equal write counts
//     are exchangeable, so the minimum lifetime within a count-group of
//     n cells follows the closed-form minimum distribution
//     F_min = 1 − (1 − F)ⁿ. O(cells) becomes O(groups) — and write
//     distributions are highly degenerate (tens to ~1000 distinct
//     counts across the paper-scale array's million cells).
//
//  2. Hazard-sum inversion: a device's lifetime M is the minimum over
//     its groups' minima, and independence multiplies the survival
//     functions: P(M > x) = Πⱼ SF(x·rⱼ)^{nⱼ} = e^{−H(x)} with the
//     cumulative hazard H(x) = Σⱼ −nⱼ·ln SF(x·rⱼ). So M itself has a
//     closed-form distribution, and a device draw is a single Exp(1)
//     variate pushed through H⁻¹ — O(1), independent of both cell and
//     group count. H⁻¹ is tabulated once per (Groups, σ) on a
//     log-spaced lifetime grid spanning the full reachable Exp(1)
//     range, its points filled over the worker pool (bit-identical for
//     any worker count). A draw finds its grid interval by a
//     guide-indexed lower-bound search, which starts within about one
//     grid point of the answer, and interpolates log-log; the lifetime
//     is within 1e−6 relative of exact bisection for σ ∈ [0.01, 2]
//     (FuzzSurvive), far below what the KS acceptance tests could
//     detect. One measured exception: a distribution with a single
//     written cell ({0, 0, 1000, 0}) at σ = 2 is off by up to 1.65e−6,
//     so that shape is not in FuzzSurvive's corpus; ROADMAP item 4's
//     tighter bracket fixes it where the bench goldens may be
//     regenerated. The measure-zero draws outside the grid fall back to
//     exact bisection on H. The table is built for a median of 1, and
//     a median only scales the lifetime (the paper's Eq. 4), so
//     SurviveMedians inverts each device once and scales the draw for
//     every technology of a sweep: one table and one draw pass per
//     (Groups, σ).
//
//  3. Pool-parallel, allocation-free batching: devices are drawn in
//     fixed 8192-device logical batches sharded over internal/pool,
//     each batch owning a splitmix64 stream seeded from (Seed, batch) —
//     so the sample vector is bit-identical for any worker count — with
//     the sample buffer pooled on a package free list and the B-lives
//     extracted once per call by stats.PercentileRadixFloat instead of
//     a full sort, then scaled by each median.
//
// Correctness is enforced by Kolmogorov–Smirnov acceptance tests against
// the per-cell reference sampler (Model.ReferenceSample) across σ values
// and distribution shapes, a direct H(H⁻¹(E)) = E inversion-accuracy
// check, exact determinism tests across worker counts, and bit-identity
// tests of the shared draws against a per-median oracle and of the
// guided search against a plain binary search.
package fleet

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pimendure/internal/obs"
	"pimendure/internal/pool"
	"pimendure/internal/stats"
)

// Engine telemetry (no-ops until obs.Enable): population and work
// counters plus the per-batch draw latency histogram.
var (
	// obsDevices counts simulated devices: a call's population once
	// per median.
	obsDevices = obs.GetCounter("fleet.devices")
	// obsDraws counts endurance quantile inversions — one per device
	// per SurviveMedians call, however many medians share it; compare
	// against devices × cells for the order-statistic collapse factor.
	obsDraws = obs.GetCounter("fleet.draws")
	// obsGroups counts distinct write-count groups per draw call.
	obsGroups = obs.GetCounter("fleet.groups")
	// obsFallbacks counts draws that landed outside the hazard table
	// and were solved by exact bisection (expected ≈ never: the grid
	// spans the full reachable Exp(1) range).
	obsFallbacks = obs.GetCounter("fleet.fallbacks")
	// obsDrawHist is the per-8192-device-batch draw latency.
	obsDrawHist = obs.GetDurationHistogram("fleet.draw")
)

// Model is the lognormal endurance population a fleet is drawn from.
type Model struct {
	// MedianEndurance is the nominal writes-to-failure (the lognormal
	// median, exp(µ)).
	MedianEndurance float64
	// Sigma is the lognormal shape parameter (σ of ln endurance); 0
	// collapses every device onto the deterministic Eq. 4 lifetime.
	Sigma float64
}

// bLives are the survival points every Result reports: B1, B10 and B50.
var bLives = [...]float64{0.01, 0.10, 0.50}

// Params configures one Survive or SurviveMedians call.
type Params struct {
	// Devices is the fleet population to simulate (must be positive).
	Devices int
	// Seed fixes the draw streams; a (Seed, Devices) pair reproduces
	// the sample vector exactly, for any Workers value.
	Seed int64
	// Workers bounds the pool fan-out (≤ 0 selects GOMAXPROCS).
	Workers int
	// Series, when non-nil, receives one row per finished draw batch
	// with the cumulative device count, counted once per median — the
	// serving layer's progress feed. The series must have exactly one
	// column.
	Series *obs.Series
	// SeriesBase is added to every cumulative count reported on Series,
	// so a multi-point caller (pim.Fleet) can feed one series across a
	// whole strategy × technology × σ sweep and have it count devices
	// fleet-wide instead of restarting at zero each point.
	SeriesBase float64
}

// Result is the fleet-survival summary of one Survive call (or of one
// median of a SurviveMedians call), in benchmark iterations.
type Result struct {
	// Devices is the simulated population size.
	Devices int
	// Groups is the number of distinct write-count groups.
	Groups int
	// Cells is the number of written cells per device.
	Cells int
	// Draws is the number of endurance quantile inversions behind the
	// result (one per device, shared by every median of a SurviveMedians
	// call) — compare against Devices×Cells for the collapse factor.
	Draws int64
	// Mean is the mean first-failure iteration count.
	Mean float64
	// Quantiles holds the B1, B10 and B50 first-failure iteration
	// counts, in that order.
	Quantiles []float64
	// DeterministicIterations is the paper's uniform-endurance Eq. 4
	// value, MedianEndurance / max write rate, for comparison.
	DeterministicIterations float64
}

// drawBatch is the logical batch size: the determinism unit (one RNG
// stream per batch) and the work-stealing granule. 8192 devices is
// well under a millisecond of draw work, small enough to load-balance
// and large enough that the per-batch bookkeeping vanishes.
const drawBatch = 8192

// Survive draws p.Devices iid devices against the grouped write
// distribution and returns the mean and the B1/B10/B50 of the
// first-failure iteration count. The sample vector is a pure function
// of (g, m, p.Seed, p.Devices) — bit-identical across worker counts. It
// is the one-median case of SurviveMedians.
func (m Model) Survive(g *Groups, p Params) (Result, error) {
	res, err := SurviveMedians(g, m.Sigma, []float64{m.MedianEndurance}, p)
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// SurviveMedians is Survive for several median endurances at one σ —
// the technologies of a fleet study. A median only scales a lifetime
// (the paper's Eq. 4), so each device's Exp(1) variate is inverted once,
// at median 1, and every median reuses the draw. The results, parallel
// to medians, are bit-identical to one Survive call per median with the
// same Params: each batch sums the same rounded products median·x in the
// same device order, and nearest-rank selection commutes with scaling by
// a positive constant, so a median's quantile is median × the median-1
// quantile exactly. p.Series advances by devices × len(medians) per
// batch; the devices counter counts every median's population, the
// draws counter one inversion per device.
func SurviveMedians(g *Groups, sigma float64, medians []float64, p Params) ([]Result, error) {
	for _, med := range medians {
		if med <= 0 {
			return nil, fmt.Errorf("fleet: non-positive median endurance %v", med)
		}
	}
	if sigma < 0 {
		return nil, fmt.Errorf("fleet: negative sigma %v", sigma)
	}
	if p.Devices <= 0 {
		return nil, fmt.Errorf("fleet: devices must be positive, got %d", p.Devices)
	}
	if g == nil || len(g.Rate) == 0 {
		return nil, fmt.Errorf("fleet: empty group set (use GroupCounts)")
	}
	if len(medians) == 0 {
		return nil, nil
	}
	n := p.Devices
	res := make([]Result, len(medians))
	for j, med := range medians {
		res[j] = Result{
			Devices:                 n,
			Groups:                  len(g.Rate),
			Cells:                   g.Cells,
			Quantiles:               make([]float64, len(bLives)),
			DeterministicIterations: med / g.MaxRate(),
		}
	}
	obsDevices.Add(int64(n * len(medians)))
	obsGroups.Add(int64(len(g.Rate)))

	if sigma == 0 {
		// Point mass: every device fails at the deterministic lifetime.
		// No RNG is consumed and no sample buffer is needed. The
		// exp(log) round trip mirrors what a zero-σ draw evaluates to,
		// keeping the value consistent with the σ→0 limit of the
		// sampled path.
		for j, med := range medians {
			v := math.Exp(math.Log(med)) / g.MaxRate()
			res[j].Mean = v
			for i := range res[j].Quantiles {
				res[j].Quantiles[i] = v
			}
		}
		if p.Series != nil {
			p.Series.Add(p.SeriesBase + float64(n*len(medians)))
		}
		return res, nil
	}

	tbl := g.table(sigma, p.Workers)
	nBatches := (n + drawBatch - 1) / drawBatch
	// samples holds each device's normalized (median 1) lifetime.
	samples := getBuf(n)
	defer putBuf(samples)
	// Per-batch partials, combined in batch order below so the means are
	// as deterministic as the samples themselves; sums is median-major.
	sums := make([]float64, len(medians)*nBatches)
	mins := make([]float64, nBatches)
	maxs := make([]float64, nBatches)
	var done atomic.Int64
	pool.ForEachWorker(p.Workers, nBatches, func(_, b int) {
		t0 := time.Now()
		batch := samples[b*drawBatch : min((b+1)*drawBatch, n)]
		rng := newBatchRNG(p.Seed, b)
		bmin, bmax := math.Inf(1), math.Inf(-1)
		var bfallbacks int64
		for d := range batch {
			x := tbl.invert(rng.exp(), &bfallbacks)
			batch[d] = x
			if x < bmin {
				bmin = x
			}
			if x > bmax {
				bmax = x
			}
		}
		for j, med := range medians {
			var bsum float64
			for _, x := range batch {
				// The conversion rounds the product before the add (no
				// fused multiply-add), so each term is the lifetime the
				// quantiles report.
				bsum += float64(med * x)
			}
			sums[j*nBatches+b] = bsum
		}
		mins[b], maxs[b] = bmin, bmax
		obsDraws.Add(int64(len(batch)))
		obsFallbacks.Add(bfallbacks)
		obsDrawHist.ObserveDuration(time.Since(t0))
		if p.Series != nil {
			p.Series.Add(p.SeriesBase + float64(done.Add(int64(len(batch)*len(medians)))))
		}
	})

	gmin, gmax := math.Inf(1), math.Inf(-1)
	for b := 0; b < nBatches; b++ {
		gmin = math.Min(gmin, mins[b])
		gmax = math.Max(gmax, maxs[b])
	}
	for j := range res {
		var sum float64
		for _, s := range sums[j*nBatches : (j+1)*nBatches] {
			sum += s
		}
		res[j].Mean = sum / float64(n)
		res[j].Draws = int64(n)
	}
	work := getBuf(1024)[:0]
	for i, q := range bLives {
		var x float64
		x, work = stats.PercentileRadixFloat(samples, q, gmin, gmax, work)
		for j, med := range medians {
			res[j].Quantiles[i] = med * x
		}
	}
	putBuf(work)
	return res, nil
}

// hazardGrid is the number of tabulated points of H⁻¹. 4096 log-spaced
// lifetime points over the reachable Exp(1) range keep the log-log
// interpolation error below 1e−6 relative for σ ≥ 0.01 while the grid
// stays a cache-friendly 32 KB.
const hazardGrid = 4096

// guideBuckets is the number of equal-width ln H buckets of a table's
// guide, about one grid point per bucket where draws land.
const guideBuckets = 4096

// hazardTable is the precomputed inverse of a grouped distribution's
// cumulative hazard H(x) = Σⱼ −nⱼ·ln SF(x·rⱼ), normalized to median
// endurance 1 (a different median scales the lifetime, which the
// caller applies). lnx is uniform in log-lifetime; lnH is
// non-decreasing (strictly, below +Inf), so a draw is a guided lower
// bound search plus one interpolation. Read-only after build; shared by
// every worker and every technology.
type hazardTable struct {
	l     stats.Lognormal // median 1, the table's σ
	g     *Groups
	lnx0  float64 // ln lifetime at grid point 0
	dlnx  float64 // grid spacing in ln lifetime
	lnH   []float64
	lnxHi float64 // ln lifetime at the last grid point

	// guide[k] is the first grid index i with bucket(lnH[i]) ≥ k: the
	// lower-bound search for an ln E in bucket k starts there and only
	// scans forward. Buckets split [guideLo, guideLo + guideBuckets /
	// guideScale] evenly.
	guide      []uint16
	guideLo    float64
	guideScale float64 // buckets per unit of ln H
}

// hazardFloor and hazardCeil bound the tabulated hazard range. An
// Exp(1) draw from the engine's strictly-interior uniforms lies in
// [−ln(1 − 2⁻⁵⁴), −ln(2⁻⁵⁴)] ⊂ [5e−17, 37.5], so a table solved out to
// [1e−18, 38] covers every reachable draw and the bisection fallback is
// measure-zero insurance.
const (
	hazardFloor = 1e-18
	hazardCeil  = 38
)

// table returns the per-σ hazard inverse, building it over at most
// workers goroutines and caching it on first use. Tables depend only on
// (Groups, σ): a strategy's groups are computed once and replayed across
// every technology × σ sweep point.
func (g *Groups) table(sigma float64, workers int) *hazardTable {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.tables[sigma]; ok {
		return t
	}
	t := buildTable(stats.Lognormal{Mu: 0, Sigma: sigma}, g, workers)
	if g.tables == nil {
		g.tables = map[float64]*hazardTable{}
	}
	g.tables[sigma] = t
	return t
}

// hazardAt evaluates the exact cumulative hazard at normalized
// lifetime x.
func hazardAt(l stats.Lognormal, g *Groups, x float64) float64 {
	var h float64
	for j, r := range g.Rate {
		h += l.MinHazard(x*r, g.Size[j])
	}
	return h
}

// buildTable brackets the lifetime range covering H ∈ [hazardFloor,
// hazardCeil] by doubling/halving from the deterministic lifetime
// (H is monotone in x), then tabulates ln H on a log-spaced lifetime
// grid. Cost is O(hazardGrid × groups) erfc evaluations — paid once
// per (Groups, σ) and amortized over millions of draws. The grid
// values are filled in blocks over the worker pool; each is the same
// expression of its index, so the table is bit-identical for any
// worker count. The upper end is not tightened: at σ ≤ 0.01 the last
// doubling overshoots H = hazardCeil by so much that most grid points
// sit above it, and tightening would move every grid point of every
// table and with them every drawn sample, which bench/golden/seed1.json
// pins.
func buildTable(l stats.Lognormal, g *Groups, workers int) *hazardTable {
	det := 1 / g.Rate[0] // deterministic lifetime at median 1
	lo, hi := det, det
	for i := 0; hazardAt(l, g, lo) > hazardFloor && i < 4000; i++ {
		lo /= 2
	}
	for i := 0; hazardAt(l, g, hi) < hazardCeil && i < 4000; i++ {
		hi *= 2
	}
	// Tighten the low end: a power-of-two bracket can waste decades of
	// grid on hazard far below the floor. 40 log-bisections pin the
	// H = hazardFloor crossing to float precision.
	blo, bhi := lo, hi
	for i := 0; i < 40; i++ {
		mid := math.Sqrt(blo * bhi)
		if hazardAt(l, g, mid) > hazardFloor {
			bhi = mid
		} else {
			blo = mid
		}
	}
	lo = blo

	t := &hazardTable{
		l:     l,
		g:     g,
		lnx0:  math.Log(lo),
		lnxHi: math.Log(hi),
		lnH:   make([]float64, hazardGrid),
	}
	t.dlnx = (t.lnxHi - t.lnx0) / (hazardGrid - 1)
	pool.ForEachBlock(workers, hazardGrid, func(start, end int) {
		for i := start; i < end; i++ {
			t.lnH[i] = math.Log(hazardAt(l, g, math.Exp(t.lnx0+float64(i)*t.dlnx)))
		}
	})
	// Enforce strict increase so the lower-bound search stays
	// well-defined even where float rounding flattens the curve.
	prev := math.Inf(-1)
	for i, v := range t.lnH {
		if v <= prev {
			v = math.Nextafter(prev, math.Inf(1))
			t.lnH[i] = v
		}
		prev = v
	}
	t.buildGuide()
	return t
}

// buildGuide spans the guide over the reachable part of the table,
// [max(lnH[0], ln hazardFloor), min(lnH[last], ln hazardCeil)]. The
// ceiling matters: at small σ the grid's top runs to +Inf, and a span
// ending there would put every draw in bucket 0.
func (t *hazardTable) buildGuide() {
	lo := math.Max(t.lnH[0], math.Log(hazardFloor))
	hi := math.Min(t.lnH[len(t.lnH)-1], math.Log(hazardCeil))
	t.guideLo = lo
	if hi > lo {
		t.guideScale = guideBuckets / (hi - lo)
	}
	t.guide = make([]uint16, guideBuckets)
	k := 0
	for i, v := range t.lnH {
		for b := t.bucket(v); k <= b; k++ {
			t.guide[k] = uint16(i)
		}
	}
	// Buckets above the last grid value hold no in-range ln E.
	for ; k < guideBuckets; k++ {
		t.guide[k] = uint16(len(t.lnH) - 1)
	}
}

// bucket returns the guide bucket of ln H value v, clamped to the
// guide. It is non-decreasing in v, which is what lets a search start
// at guide[bucket(v)].
func (t *hazardTable) bucket(v float64) int {
	f := (v - t.guideLo) * t.guideScale
	if !(f > 0) {
		return 0
	}
	if f >= guideBuckets-1 {
		return guideBuckets - 1
	}
	return int(f)
}

// invert returns the normalized (median 1) lifetime H⁻¹(e) via the
// table — a guided lower-bound search plus log-log interpolation —
// falling back to exact bisection for the measure-zero draws outside
// the tabulated range.
func (t *hazardTable) invert(e float64, fallbacks *int64) float64 {
	le := math.Log(e)
	if le < t.lnH[0] || le > t.lnH[len(t.lnH)-1] {
		*fallbacks++
		return t.solveExact(e)
	}
	// The lower bound, the first i with lnH[i] ≥ le, is at or after the
	// guide entry (bucket is monotone) and at or before the last grid
	// point (le is in range).
	i := int(t.guide[t.bucket(le)])
	for t.lnH[i] < le {
		i++
	}
	return t.interpolate(i, le)
}

// interpolate returns the lifetime for ln E = le given its lower bound
// i in lnH: le ∈ (lnH[i−1], lnH[i]]. i = 0 only when le equals the
// first grid value exactly, which resolves to the grid edge.
func (t *hazardTable) interpolate(i int, le float64) float64 {
	if i == 0 {
		return math.Exp(t.lnx0)
	}
	w := (le - t.lnH[i-1]) / (t.lnH[i] - t.lnH[i-1])
	return math.Exp(t.lnx0 + (float64(i-1)+w)*t.dlnx)
}

// solveExact inverts the hazard by bisection for draws outside the
// table — exact to float precision, O(groups·log) per call, and
// essentially never taken (see hazardFloor/hazardCeil).
func (t *hazardTable) solveExact(e float64) float64 {
	lo, hi := math.Exp(t.lnx0), math.Exp(t.lnxHi)
	for i := 0; hazardAt(t.l, t.g, lo) > e && i < 4000; i++ {
		lo /= 2
	}
	for i := 0; hazardAt(t.l, t.g, hi) < e && i < 4000; i++ {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if mid <= lo || mid >= hi {
			break
		}
		if hazardAt(t.l, t.g, mid) < e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// The sample-buffer free list: Survive's only large allocation is the
// per-call device sample vector, pooled here so steady-state fleet
// traffic (serve jobs, benchmarks, sweeps) redraws into warm buffers.
// Buffers are owned exclusively between get and put, as in the engine
// arena (ARCHITECTURE.md "Memory discipline").
var (
	bufMu   sync.Mutex
	bufFree [][]float64
)

// getBuf pops (or allocates) a float buffer with length n. Contents are
// unspecified; callers overwrite every slot.
func getBuf(n int) []float64 {
	bufMu.Lock()
	for i := len(bufFree) - 1; i >= 0; i-- {
		if cap(bufFree[i]) >= n {
			b := bufFree[i]
			bufFree[i] = bufFree[len(bufFree)-1]
			bufFree = bufFree[:len(bufFree)-1]
			bufMu.Unlock()
			return b[:n]
		}
	}
	bufMu.Unlock()
	return make([]float64, n)
}

// putBuf returns a buffer to the free list. The list is bounded so a
// burst of concurrent calls cannot pin an unbounded number of
// multi-megabyte buffers.
func putBuf(b []float64) {
	bufMu.Lock()
	if len(bufFree) < 8 {
		bufFree = append(bufFree, b)
	}
	bufMu.Unlock()
}
