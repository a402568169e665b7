package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want, tol float64 }{
		{0.5, 0, 0},
		{0.975, 1.9599639845400545, 1e-14},
		{0.025, -1.9599639845400545, 1e-14},
		{0.84134474606854293, 1, 1e-13}, // Φ(1)
		{1e-10, -6.3613409024040557, 1e-12},
		{0.9, 1.2815515655446004, 1e-14},
	}
	for _, c := range cases {
		got := NormQuantile(c.p)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("NormQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("boundary quantiles should be ±Inf")
	}
}

func TestNormQuantileAgreesWithErfinv(t *testing.T) {
	// Mid-range, where Erfinv(2p−1) is itself accurate: the two routes
	// must agree to near machine precision.
	for p := 0.001; p < 1; p += 0.0017 {
		want := math.Sqrt2 * math.Erfinv(2*p-1)
		got := NormQuantile(p)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("NormQuantile(%v) = %v, erfinv route = %v", p, got, want)
		}
	}
}

func TestNormQuantileDeepTail(t *testing.T) {
	// The erfinv route collapses to −Inf below p ≈ 1e−17; AS241 must keep
	// returning finite, monotone quantiles all the way down.
	prev := math.Inf(-1)
	for _, p := range []float64{1e-300, 1e-100, 1e-50, 1e-20, 1e-17, 1e-10, 1e-5} {
		z := NormQuantile(p)
		if math.IsInf(z, 0) || math.IsNaN(z) {
			t.Fatalf("NormQuantile(%g) = %v, want finite", p, z)
		}
		if z <= prev {
			t.Fatalf("NormQuantile not monotone at p=%g: %v <= %v", p, z, prev)
		}
		prev = z
	}
	// Round-trip through the normal CDF where erfc still resolves it.
	for _, p := range []float64{1e-10, 1e-6, 1e-3} {
		z := NormQuantile(p)
		back := 0.5 * math.Erfc(-z/math.Sqrt2)
		if math.Abs(back-p) > 1e-12*p {
			t.Errorf("Φ(Φ⁻¹(%g)) = %g", p, back)
		}
	}
}

func TestLognormalCDFQuantileRoundTrip(t *testing.T) {
	l := LognormalMedian(1e6, 0.45)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		x := l.Quantile(p)
		if got := l.CDF(x); math.Abs(got-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
		if got := l.SF(x); math.Abs(got-(1-p)) > 1e-12 {
			t.Errorf("SF(Quantile(%v)) = %v", p, got)
		}
	}
	if got := l.Quantile(0.5); math.Abs(got-1e6) > 1e-6 {
		t.Errorf("median quantile = %v, want 1e6", got)
	}
	if l.CDF(0) != 0 || l.CDF(-3) != 0 || l.SF(0) != 1 {
		t.Error("non-positive support handling wrong")
	}
}

func TestLognormalSigmaZero(t *testing.T) {
	l := LognormalMedian(5000, 0)
	rng := rand.New(rand.NewSource(1))
	med := l.Median()
	for _, p := range []float64{0.01, 0.5, 0.99} {
		if got := l.Quantile(p); got != med {
			t.Errorf("Quantile(%v) = %v, want the point mass %v", p, got, med)
		}
		if got := l.OrderQuantile(p, 1_000_000, 0); got != med {
			t.Errorf("OrderQuantile(%v) = %v, want the point mass %v", p, got, med)
		}
	}
	if got := l.OrderMean(1024, 100); got != med {
		t.Errorf("OrderMean = %v, want the point mass %v", got, med)
	}
	if got := l.Draw(rng); got != med {
		t.Errorf("Draw = %v, want the point mass %v", got, med)
	}
	if math.Abs(med-5000) > 1e-9 {
		t.Errorf("Median = %v, want ≈5000", med)
	}
	if l.CDF(4999) != 0 || l.CDF(5000) != 1 || l.SF(4999) != 1 || l.SF(5000) != 0 {
		t.Error("σ=0 step function wrong")
	}
}

// OrderQuantile at k = 0 is the minimum's quantile, whose closed form is
// F⁻¹(1 − (1 − p)^{1/n}); at every k it inverts orderSF.
func TestLognormalQuantileMin(t *testing.T) {
	l := LognormalMedian(1e6, 0.3)
	for _, n := range []int{1, 2, 100, 1024, 1_000_000} {
		for _, p := range []float64{0.01, 0.05, 0.5, 0.95, 0.99} {
			want := l.Quantile(-math.Expm1(math.Log1p(-p) / float64(n)))
			if got := l.OrderQuantile(p, n, 0); math.Abs(got/want-1) > 1e-12 {
				t.Errorf("OrderQuantile(%v, %v, 0) = %.17g, closed form %.17g", p, n, got, want)
			}
		}
	}
	for _, c := range []struct{ n, k int }{{1, 0}, {100, 0}, {100, 1}, {100, 99}, {1024, 102}} {
		for _, p := range []float64{0.01, 0.5, 0.99} {
			x := l.OrderQuantile(p, c.n, c.k)
			if got := 1 - l.orderSF(x, c.n, c.k); math.Abs(got-p) > 1e-9 {
				t.Errorf("1 − orderSF(OrderQuantile(%v, %d, %d)) = %v", p, c.n, c.k, got)
			}
		}
	}
	// The minimum of more copies is stochastically smaller.
	if l.OrderQuantile(0.5, 1000, 0) >= l.OrderQuantile(0.5, 10, 0) {
		t.Error("min over more cells should shift the quantile down")
	}
	// Monte Carlo check: the q-quantile of min over n draws matches.
	const n, trials = 50, 4000
	rng := rand.New(rand.NewSource(7))
	mins := make([]float64, trials)
	for i := range mins {
		m := math.Inf(1)
		for k := 0; k < n; k++ {
			if v := l.Draw(rng); v < m {
				m = v
			}
		}
		mins[i] = m
	}
	sort.Float64s(mins)
	for _, p := range []float64{0.25, 0.5, 0.75} {
		got := mins[int(p*float64(trials))]
		want := l.OrderQuantile(p, n, 0)
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("empirical min quantile(%v) = %v, closed form %v", p, got, want)
		}
	}
}

func TestLognormalMinHazard(t *testing.T) {
	l := LognormalMedian(1e6, 0.4)
	// −expm1(−H) must reproduce the minimum's CDF, 1 − SF(x)ⁿ, and so
	// must 1 − orderSF(x, n, 0).
	for _, n := range []float64{1, 37, 1e5} {
		for _, x := range []float64{1e5, 5e5, 1e6, 2e6} {
			h := l.MinHazard(x, n)
			want := -math.Expm1(n * math.Log(l.SF(x)))
			if got := 1 - l.orderSF(x, int(n), 0); math.Abs(got-want) > 1e-12 {
				t.Errorf("orderSF/CDF mismatch at x=%v n=%v: %v vs %v", x, n, got, want)
			}
			if got := -math.Expm1(-h); math.Abs(got-want) > 1e-12 {
				t.Errorf("hazard/CDF mismatch at x=%v n=%v: %v vs %v", x, n, got, want)
			}
		}
	}
	if l.MinHazard(0, 10) != 0 {
		t.Error("hazard below support should be 0")
	}
}

func TestLognormalDrawDistribution(t *testing.T) {
	// Fill must be distributed as exp(µ + σN): check median and the σ
	// recovered from log-samples.
	l := LognormalMedian(2e6, 0.5)
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 20000)
	l.Fill(samples, rng)
	logs := make([]float64, len(samples))
	var mean float64
	for i, v := range samples {
		logs[i] = math.Log(v)
		mean += logs[i]
	}
	mean /= float64(len(logs))
	if math.Abs(mean-l.Mu) > 0.02 {
		t.Errorf("log-mean = %v, want %v", mean, l.Mu)
	}
	var ss float64
	for _, v := range logs {
		d := v - mean
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(logs)))
	if math.Abs(sigma-0.5) > 0.02 {
		t.Errorf("log-σ = %v, want 0.5", sigma)
	}
	// Same seed, same stream: draws are reproducible.
	a := rand.New(rand.NewSource(9))
	b := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if l.Draw(a) != l.Draw(b) {
			t.Fatal("identically seeded draws diverged")
		}
	}
}

func TestPercentileRadixFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := LognormalMedian(1e6, 0.4)
	samples := make([]float64, 30001)
	l.Fill(samples, rng)
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	ref := append([]float64(nil), samples...)
	sort.Float64s(ref)
	var work []float64
	for _, q := range []float64{0, 0.01, 0.1, 0.5, 0.9, 0.99, 1} {
		var got float64
		got, work = PercentileRadixFloat(samples, q, min, max, work)
		want := ref[quantileRank(q, len(ref))]
		if got != want {
			t.Errorf("q=%v: radix %v, sorted nearest-rank %v", q, got, want)
		}
	}
	// Stale bounds clamp instead of corrupting ranks.
	got, _ := PercentileRadixFloat(samples, 0.5, min*2, max/2, work)
	want := ref[quantileRank(0.5, len(ref))]
	if got != want {
		t.Errorf("stale bounds: radix %v, want %v", got, want)
	}
	// Constant input (the σ=0 fleet case) collapses into one bucket.
	flat := []float64{7, 7, 7, 7}
	if got, _ := PercentileRadixFloat(flat, 0.9, 7, 7, nil); got != 7 {
		t.Errorf("constant input percentile = %v, want 7", got)
	}
	if got, _ := PercentileRadixFloat(nil, 0.5, 0, 0, nil); !math.IsNaN(got) {
		t.Error("empty input should be NaN")
	}
}
