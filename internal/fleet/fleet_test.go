package fleet

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// ksConfigs are the distribution shapes the engine is validated
// against: one group (degenerate), a hot cell over a uniform floor,
// many small groups, and a long-tailed mix with unwritten cells.
var ksConfigs = []struct {
	name   string
	counts []uint64
}{
	{"uniform", repeat(100, 64)},
	{"hot-cell", append(repeat(10, 63), 1000)},
	{"ramp", ramp(64)},
	{"long-tail", longTail()},
}

func repeat(v uint64, n int) []uint64 {
	c := make([]uint64, n)
	for i := range c {
		c[i] = v
	}
	return c
}

func ramp(n int) []uint64 {
	c := make([]uint64, n)
	for i := range c {
		c[i] = uint64(i + 1)
	}
	return c
}

func longTail() []uint64 {
	c := make([]uint64, 96)
	for i := range c {
		switch {
		case i < 16: // unwritten cells must be ignored
			c[i] = 0
		case i < 80:
			c[i] = uint64(5 + i%7)
		default:
			c[i] = uint64(100 * (i - 78))
		}
	}
	return c
}

// ksDistance returns the two-sample Kolmogorov–Smirnov statistic of
// two sorted samples.
func ksDistance(a, b []float64) float64 {
	var d float64
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		if a[i] <= b[k] {
			i++
		} else {
			k++
		}
		diff := math.Abs(float64(i)/float64(len(a)) - float64(k)/float64(len(b)))
		if diff > d {
			d = diff
		}
	}
	return d
}

// engineSample draws trials devices through the hazard table with
// Survive's own batch seeding, returning the raw sample vector for KS.
func engineSample(counts []uint64, iterations, trials int, m Model, seed int64) []float64 {
	g, err := GroupCounts(counts, iterations)
	if err != nil {
		panic(err)
	}
	tbl := g.table(m.Sigma, 1)
	out := make([]float64, trials)
	var fallbacks int64
	for b := 0; b*drawBatch < trials; b++ {
		rng := newBatchRNG(seed, b)
		for d := b * drawBatch; d < min((b+1)*drawBatch, trials); d++ {
			out[d] = m.MedianEndurance * tbl.invert(rng.exp(), &fallbacks)
		}
	}
	return out
}

// TestKSAgainstReference is the statistical acceptance gate: across 3 σ
// values and 4 distribution shapes, the screened order-statistic
// sampler and the per-cell reference must produce samples from the same
// distribution at KS significance α = 0.001.
func TestKSAgainstReference(t *testing.T) {
	trials := 100_000
	if raceEnabled || testing.Short() {
		trials = 10_000
	}
	// c(α=0.001) = 1.949 for the two-sample statistic.
	crit := 1.949 * math.Sqrt(2/float64(trials))
	for _, cfg := range ksConfigs {
		for _, sigma := range []float64{0.15, 0.3, 0.6} {
			m := Model{MedianEndurance: 1e6, Sigma: sigma}
			ref := m.ReferenceSample(cfg.counts, 50, trials, 11)
			got := engineSample(cfg.counts, 50, trials, m, 23)
			sort.Float64s(ref)
			sort.Float64s(got)
			if d := ksDistance(ref, got); d > crit {
				t.Errorf("%s σ=%v: KS distance %.5f > %.5f", cfg.name, sigma, d, crit)
			}
		}
	}
}

// TestWorkerDeterminism pins the bit-stability invariant: the same
// (seed, devices) must produce identical results for 1 worker, 3
// workers and GOMAXPROCS workers.
func TestWorkerDeterminism(t *testing.T) {
	g, err := GroupCounts(ksConfigs[2].counts, 50)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{MedianEndurance: 1e6, Sigma: 0.4}
	var base Result
	for i, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		res, err := m.Survive(g, Params{Devices: 50_000, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res
			continue
		}
		if res.Mean != base.Mean || res.Draws != base.Draws {
			t.Errorf("workers=%d: mean %v draws %d, want %v / %d",
				workers, res.Mean, res.Draws, base.Mean, base.Draws)
		}
		for k := range res.Quantiles {
			if res.Quantiles[k] != base.Quantiles[k] {
				t.Errorf("workers=%d: quantile[%d] %v != %v",
					workers, k, res.Quantiles[k], base.Quantiles[k])
			}
		}
	}
}

// TestInversionAccuracy drives the table inverse directly: pushing the
// returned lifetime back through the exact hazard must reproduce the
// Exp(1) input to well under any KS-detectable error, across the full
// reachable range including the extreme tails.
func TestInversionAccuracy(t *testing.T) {
	for _, sigma := range []float64{0.1, 0.3, 1.0} {
		g, err := GroupCounts(ksConfigs[3].counts, 50)
		if err != nil {
			t.Fatal(err)
		}
		tbl := g.table(sigma, 1)
		es := []float64{5.5e-17, 1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1, 2, 5, 10, 20, 30, 37}
		rng := newBatchRNG(1, 0)
		for i := 0; i < 200; i++ {
			es = append(es, rng.exp())
		}
		var fallbacks int64
		for _, e := range es {
			x := tbl.invert(e, &fallbacks)
			back := hazardAt(tbl.l, g, x)
			if math.Abs(back-e) > 1e-4*e {
				t.Errorf("σ=%v: H(H⁻¹(%g)) = %g (rel err %.2e)", sigma, e, back, math.Abs(back-e)/e)
			}
		}
		if fallbacks != 0 {
			t.Errorf("σ=%v: %d in-range draws fell back to bisection", sigma, fallbacks)
		}
	}
}

// TestSolveExact pins the out-of-table fallback against the same
// round-trip invariant.
func TestSolveExact(t *testing.T) {
	g, err := GroupCounts(ksConfigs[2].counts, 50)
	if err != nil {
		t.Fatal(err)
	}
	tbl := g.table(0.3, 1)
	for _, e := range []float64{1e-20, 1e-17, 0.5, 37, 40} {
		x := tbl.solveExact(e)
		back := hazardAt(tbl.l, g, x)
		if math.Abs(back-e) > 1e-9*e {
			t.Errorf("solveExact(%g): H = %g", e, back)
		}
	}
}

// TestSurviveMatchesReferenceMoments cross-checks Survive's mean and
// B50 against the reference sampler on mid-size runs, for a hot cell
// over a 100× colder floor and for a single written cell. One cell's
// mean is a lognormal's, median·e^(σ²/2), so it exceeds the Eq. 4
// lifetime, and the hot cell, which its neighbours barely compete with,
// does too.
func TestSurviveMatchesReferenceMoments(t *testing.T) {
	trials := 40_000
	if raceEnabled || testing.Short() {
		trials = 8_000
	}
	m := Model{MedianEndurance: 2e6, Sigma: 0.45}
	for _, cfg := range []struct {
		name   string
		counts []uint64
	}{
		{"hot-cell", ksConfigs[1].counts},
		{"one-cell", []uint64{0, 0, 1000, 0}},
	} {
		g, err := GroupCounts(cfg.counts, 20)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Survive(g, Params{Devices: trials, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		ref := m.ReferenceSample(cfg.counts, 20, trials, 9)
		sort.Float64s(ref)
		var refMean float64
		for _, v := range ref {
			refMean += v
		}
		refMean /= float64(len(ref))
		if math.Abs(res.Mean-refMean) > 0.03*refMean {
			t.Errorf("%s: mean %v, reference %v", cfg.name, res.Mean, refMean)
		}
		refMedian := ref[len(ref)/2]
		if math.Abs(res.Quantiles[2]-refMedian) > 0.03*refMedian {
			t.Errorf("%s: B50 %v, reference median %v", cfg.name, res.Quantiles[2], refMedian)
		}
		if !(res.Quantiles[0] < res.Quantiles[1] && res.Quantiles[1] < res.Quantiles[2]) {
			t.Errorf("%s: B-lives disordered: %v", cfg.name, res.Quantiles)
		}
		if res.DeterministicIterations != 2e6/g.MaxRate() {
			t.Errorf("%s: deterministic = %v", cfg.name, res.DeterministicIterations)
		}
		if !(res.Mean > res.DeterministicIterations) {
			t.Errorf("%s: mean %v does not exceed Eq. 4 %v", cfg.name, res.Mean, res.DeterministicIterations)
		}
		// The collapse must actually collapse: draws ≪ devices × cells.
		if g.Cells > 1 && res.Draws >= int64(trials*g.Cells)/10 {
			t.Errorf("%s: %d draws for %d×%d device-cells: no collapse", cfg.name, res.Draws, trials, g.Cells)
		}
	}
}

func TestSurviveSigmaZero(t *testing.T) {
	g, err := GroupCounts([]uint64{100, 50, 0, 10}, 10)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{MedianEndurance: 1e6, Sigma: 0}
	res, err := m.Survive(g, Params{Devices: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := 1e6 / 10.0
	if math.Abs(res.Mean-want) > 1e-6*want {
		t.Errorf("mean = %v, want %v", res.Mean, want)
	}
	for _, q := range res.Quantiles {
		if q != res.Mean {
			t.Errorf("σ=0 quantile %v != mean %v", q, res.Mean)
		}
	}
	if res.Draws != 0 {
		t.Errorf("σ=0 consumed %d draws", res.Draws)
	}
}

func TestGroupCounts(t *testing.T) {
	g, err := GroupCounts([]uint64{4, 0, 2, 4, 4, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells != 5 || len(g.Rate) != 3 {
		t.Fatalf("cells=%d groups=%d, want 5/3", g.Cells, len(g.Rate))
	}
	wantRate := []float64{2, 1, 0.5}
	wantSize := []float64{3, 1, 1}
	for i := range wantRate {
		if g.Rate[i] != wantRate[i] || g.Size[i] != wantSize[i] {
			t.Errorf("group %d = (%v, %v), want (%v, %v)", i, g.Rate[i], g.Size[i], wantRate[i], wantSize[i])
		}
	}
	if g.MaxRate() != 2 {
		t.Errorf("MaxRate = %v", g.MaxRate())
	}
	if _, err := GroupCounts([]uint64{0, 0}, 10); err == nil {
		t.Error("all-zero distribution should error")
	}
	if _, err := GroupCounts([]uint64{1}, 0); err == nil {
		t.Error("zero iterations should error")
	}
}

func TestSurviveValidation(t *testing.T) {
	g, _ := GroupCounts([]uint64{1}, 1)
	cases := []struct {
		m Model
		p Params
	}{
		{Model{MedianEndurance: 0, Sigma: 0.3}, Params{Devices: 10}},
		{Model{MedianEndurance: 1e6, Sigma: -1}, Params{Devices: 10}},
		{Model{MedianEndurance: 1e6, Sigma: 0.3}, Params{Devices: 0}},
	}
	for i, c := range cases {
		if _, err := c.m.Survive(g, c.p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := (Model{MedianEndurance: 1e6, Sigma: 0.3}).Survive(&Groups{}, Params{Devices: 10}); err == nil {
		t.Error("empty groups should error")
	}
}

// BenchmarkSurvive measures raw device draw throughput on a synthetic
// 1000-group distribution — the degeneracy the paper-scale randomized
// strategies actually produce. The root-level BenchmarkFleet covers the
// end-to-end path on a real simulated distribution.
func BenchmarkSurvive(b *testing.B) {
	counts := make([]uint64, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i := range counts {
		counts[i] = uint64(1000 + rng.Intn(1000))
	}
	g, err := GroupCounts(counts, 100)
	if err != nil {
		b.Fatal(err)
	}
	m := Model{MedianEndurance: 1e6, Sigma: 0.3}
	const devices = 1 << 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Survive(g, Params{Devices: devices, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
}

// TestBatchRNGStreamsDisjoint guards the seeding mistake splitmix64
// invites: adjacent batch streams must not be shifted copies of each
// other.
func TestBatchRNGStreamsDisjoint(t *testing.T) {
	a := newBatchRNG(1, 0)
	b := newBatchRNG(1, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[a.next()] = true
	}
	for i := 0; i < 1000; i++ {
		if seen[b.next()] {
			t.Fatal("batch 0 and batch 1 streams overlap")
		}
	}
}
