package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"pimendure/internal/device"
)

// studyMedians are the paper's four technologies' median endurances
// plus the normalized median 1.
func studyMedians() []float64 {
	var out []float64
	for _, t := range device.Technologies() {
		out = append(out, t.Endurance)
	}
	return append(out, 1)
}

// oracleSurvive is the per-median draw loop Survive ran before one draw
// pass served every median, kept serial as the bit-identity oracle: a
// device's lifetime is median × H⁻¹(E) through the plain binary search
// (searchInvert), batch sums add those lifetimes in device order, and
// each B-life is the nearest-rank element of the sorted scaled samples.
func oracleSurvive(g *Groups, m Model, p Params) (mean float64, qs []float64) {
	n := p.Devices
	if m.Sigma == 0 {
		v := math.Exp(math.Log(m.MedianEndurance)) / g.MaxRate()
		for range bLives {
			qs = append(qs, v)
		}
		return v, qs
	}
	tbl := g.table(m.Sigma, 1)
	samples := make([]float64, n)
	var sum float64
	var fallbacks int64
	for b := 0; b*drawBatch < n; b++ {
		rng := newBatchRNG(p.Seed, b)
		var bsum float64
		for d := b * drawBatch; d < min((b+1)*drawBatch, n); d++ {
			life := float64(m.MedianEndurance * searchInvert(tbl, rng.exp(), &fallbacks))
			samples[d] = life
			bsum += life
		}
		sum += bsum
	}
	sort.Float64s(samples)
	for _, q := range bLives {
		qs = append(qs, samples[int(q*float64(n-1))])
	}
	return sum / float64(n), qs
}

// searchInvert is invert with the guide replaced by sort.Search over
// the whole grid: the lower bound by definition, then the table's own
// interpolation.
func searchInvert(t *hazardTable, e float64, fallbacks *int64) float64 {
	le := math.Log(e)
	if le < t.lnH[0] || le > t.lnH[len(t.lnH)-1] {
		*fallbacks++
		return t.solveExact(e)
	}
	return t.interpolate(sort.Search(len(t.lnH), func(i int) bool { return t.lnH[i] >= le }), le)
}

// One shared draw pass must give every median exactly what a Survive
// call per median gives, field for field and bit for bit, and both must
// equal the pre-sharing oracle, for every shape, σ and worker count.
func TestSurviveMediansMatchesSurvive(t *testing.T) {
	devices := 20_000 // two full batches and a partial one
	if raceEnabled || testing.Short() {
		devices = 9_000
	}
	medians := studyMedians()
	for _, cfg := range ksConfigs {
		for _, sigma := range []float64{0, 0.01, 0.3, 2} {
			g, err := GroupCounts(cfg.counts, 50)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				p := Params{Devices: devices, Seed: 17, Workers: workers}
				shared, err := SurviveMedians(g, sigma, medians, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(shared) != len(medians) {
					t.Fatalf("%d results for %d medians", len(shared), len(medians))
				}
				for j, med := range medians {
					m := Model{MedianEndurance: med, Sigma: sigma}
					one, err := m.Survive(g, p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(shared[j], one) {
						t.Errorf("%s σ=%v median %g workers=%d: shared %+v, Survive %+v",
							cfg.name, sigma, med, workers, shared[j], one)
					}
					if workers != 1 {
						continue
					}
					mean, qs := oracleSurvive(g, m, p)
					if shared[j].Mean != mean || !reflect.DeepEqual(shared[j].Quantiles, qs) {
						t.Errorf("%s σ=%v median %g: mean %v quantiles %v, oracle %v / %v",
							cfg.name, sigma, med, shared[j].Mean, shared[j].Quantiles, mean, qs)
					}
				}
			}
		}
	}
}

// Any non-positive median fails the whole call; no medians is no
// results (a study with no technologies).
func TestSurviveMediansValidation(t *testing.T) {
	g, err := GroupCounts([]uint64{3, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Devices: 10}
	if _, err := SurviveMedians(g, 0.3, []float64{1e6, 0}, p); err == nil {
		t.Error("a non-positive median was accepted")
	}
	if res, err := SurviveMedians(g, 0.3, nil, p); err != nil || len(res) != 0 {
		t.Errorf("no medians: %v, %v; want no results and no error", res, err)
	}
}

// The pooled table build fills each grid point with the same expression
// of its index, so the table is bitwise the same for any worker count.
func TestTableWorkersBitIdentical(t *testing.T) {
	for _, cfg := range ksConfigs {
		for _, sigma := range []float64{0.001, 0.3, 2} {
			g1, err := GroupCounts(cfg.counts, 50)
			if err != nil {
				t.Fatal(err)
			}
			g4, _ := GroupCounts(cfg.counts, 50)
			a, b := g1.table(sigma, 1), g4.table(sigma, 4)
			for i := range a.lnH {
				if math.Float64bits(a.lnH[i]) != math.Float64bits(b.lnH[i]) {
					t.Fatalf("%s σ=%v: lnH[%d] = %v at 1 worker, %v at 4", cfg.name, sigma, i, a.lnH[i], b.lnH[i])
				}
			}
			if a.lnx0 != b.lnx0 || a.dlnx != b.dlnx || !reflect.DeepEqual(a.guide, b.guide) {
				t.Errorf("%s σ=%v: grid or guide differs across worker counts", cfg.name, sigma)
			}
		}
	}
}

// The guide only changes where the lower-bound search starts: invert
// must return exactly the binary search's lifetime on every draw,
// including the small-σ tables whose grid top runs to +Inf.
func TestInvertMatchesBinarySearch(t *testing.T) {
	draws := 200_000
	if raceEnabled || testing.Short() {
		draws = 20_000
	}
	for _, cfg := range ksConfigs {
		for _, sigma := range []float64{0.001, 0.01, 0.3, 2} {
			g, err := GroupCounts(cfg.counts, 50)
			if err != nil {
				t.Fatal(err)
			}
			tbl := g.table(sigma, 1)
			rng := newBatchRNG(3, 0)
			var fb, fbSearch int64
			for d := 0; d < draws; d++ {
				e := rng.exp()
				got, want := tbl.invert(e, &fb), searchInvert(tbl, e, &fbSearch)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s σ=%v: invert(%v) = %v, binary search %v", cfg.name, sigma, e, got, want)
				}
			}
			if fb != fbSearch {
				t.Errorf("%s σ=%v: %d fallbacks, binary search %d", cfg.name, sigma, fb, fbSearch)
			}
		}
	}
}

// fuzzShapes are FuzzSurvive's write distributions: the KS shapes plus
// a ~1000-group spread like a randomized paper-scale strategy's.
func fuzzShapes() [][]uint64 {
	var out [][]uint64
	for _, cfg := range ksConfigs {
		out = append(out, cfg.counts)
	}
	wide := make([]uint64, 1<<14)
	rng := rand.New(rand.NewSource(1))
	for i := range wide {
		wide[i] = uint64(1000 + rng.Intn(1000))
	}
	return append(out, wide)
}

// foldInto maps an arbitrary fuzz float into [lo, hi], leaving values
// already inside unchanged.
func foldInto(v, lo, hi float64) float64 {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return lo
	case v >= lo && v <= hi:
		return v
	}
	return lo + math.Mod(math.Abs(v), hi-lo)
}

// FuzzSurvive drives the draw engine at σ ∈ [0.01, 2] and median
// endurance 10⁶–10¹² over five shapes. The B-lives must be positive,
// finite and non-decreasing, the mean finite; no in-range draw may fall
// back to bisection; an inverted lifetime must be within 1e−6 of the
// exact bisection solution; and the B-lives at median m must be m
// times those at median 1, bit for bit.
func FuzzSurvive(f *testing.F) {
	shapes := fuzzShapes()
	for _, sigma := range []float64{0.01, 0.05, 0.3, 1, 2} {
		for _, logMedian := range []float64{6, 9, 12} {
			for shape := range shapes {
				f.Add(sigma, logMedian, uint8(shape), int64(1))
			}
		}
	}
	// Each shape keeps its Groups, and so its hazard table, for the last
	// σ it ran at: the corpus's three medians per (shape, σ) share one
	// table build, and a long fuzz run holds one table per shape.
	type lastGroups struct {
		sigma float64
		g     *Groups
	}
	var mu sync.Mutex
	last := make([]lastGroups, len(shapes))
	groupsFor := func(shape int, sigma float64) (*Groups, error) {
		mu.Lock()
		defer mu.Unlock()
		if l := last[shape]; l.g != nil && l.sigma == sigma {
			return l.g, nil
		}
		g, err := GroupCounts(shapes[shape], 50)
		last[shape] = lastGroups{sigma, g}
		return g, err
	}
	f.Fuzz(func(t *testing.T, sigma, logMedian float64, shape uint8, seed int64) {
		sigma = foldInto(sigma, 0.01, 2)
		median := math.Pow(10, foldInto(logMedian, 6, 12))
		g, err := groupsFor(int(shape)%len(shapes), sigma)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Devices: 10_000, Seed: seed}
		res, err := Model{MedianEndurance: median, Sigma: sigma}.Survive(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.Mean) || math.IsInf(res.Mean, 0) {
			t.Errorf("σ=%v median %g: mean %v", sigma, median, res.Mean)
		}
		for i, q := range res.Quantiles {
			if !(q > 0) || math.IsInf(q, 0) || (i > 0 && q < res.Quantiles[i-1]) {
				t.Fatalf("σ=%v median %g: quantiles %v", sigma, median, res.Quantiles)
			}
		}
		unit, err := Model{MedianEndurance: 1, Sigma: sigma}.Survive(g, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range unit.Quantiles {
			if median*q != res.Quantiles[i] {
				t.Errorf("σ=%v median %g: B-life %v is %v, median × median-1 B-life is %v",
					sigma, median, bLives[i], res.Quantiles[i], median*q)
			}
		}

		// Re-draw the same streams straight through the table.
		tbl := g.table(sigma, 0)
		var fallbacks int64
		checked := []float64{-math.Log1p(-0x1p-54), -math.Log(0x1p-54)} // reachable extremes
		for b := 0; b*drawBatch < p.Devices; b++ {
			rng := newBatchRNG(seed, b)
			for d := b * drawBatch; d < min((b+1)*drawBatch, p.Devices); d++ {
				e := rng.exp()
				tbl.invert(e, &fallbacks)
				if d < 8 {
					checked = append(checked, e)
				}
			}
		}
		if fallbacks != 0 {
			t.Errorf("σ=%v: %d in-range draws fell back to bisection", sigma, fallbacks)
		}
		for _, e := range checked {
			got, exact := tbl.invert(e, &fallbacks), tbl.solveExact(e)
			if rel := math.Abs(got-exact) / exact; !(rel <= 1e-6) {
				t.Errorf("σ=%v: H⁻¹(%v) = %v, exact %v (rel err %.2e)", sigma, e, got, exact, rel)
			}
		}
	})
}
