package system

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pimendure/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Arrays: 16, SpareFraction: 0.25, DutyCycle: 1, Sigma: 0.3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Arrays: 0, DutyCycle: 1},
		{Arrays: 4, SpareFraction: -0.1, DutyCycle: 1},
		{Arrays: 4, SpareFraction: 1, DutyCycle: 1},
		{Arrays: 4, DutyCycle: 0},
		{Arrays: 4, DutyCycle: 1.5},
		{Arrays: 4, DutyCycle: 1, Sigma: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// sampleChips is the chip sampler that the exact order statistic
// replaced, kept as its test oracle: each chip draws cfg.Arrays lognormal
// array lives around the median and dies at the (k+1)-th smallest,
// k = ⌊SpareFraction·Arrays⌋, stretched by the duty cycle.
func sampleChips(median float64, cfg Config, chips int, seed int64) []float64 {
	k := int(cfg.SpareFraction * float64(cfg.Arrays))
	l := stats.LognormalMedian(median, cfg.Sigma)
	rng := rand.New(rand.NewSource(seed))
	lives := make([]float64, cfg.Arrays)
	out := make([]float64, chips)
	for c := range out {
		l.Fill(lives, rng)
		sort.Float64s(lives)
		out[c] = lives[k] / cfg.DutyCycle
	}
	return out
}

// binomialAtMost returns P(Binomial(n, p) ≤ k) by summing lgamma-weighted
// terms, independently of orderSF's ratio recurrence.
func binomialAtMost(n, k int, p float64) float64 {
	lnN, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for j := 0; j <= k; j++ {
		a, _ := math.Lgamma(float64(j + 1))
		b, _ := math.Lgamma(float64(n - j + 1))
		sum += math.Exp(lnN - a - b + float64(j)*math.Log(p) + float64(n-j)*math.Log1p(-p))
	}
	return sum
}

// With no variation the chip dies exactly when the arrays do, stretched
// by the duty cycle, with or without spares.
func TestChipLifetimeDeterministic(t *testing.T) {
	for _, spare := range []float64{0, 0.25} {
		for _, duty := range []float64{1, 0.1, 0.37} {
			cfg := Config{Arrays: 64, SpareFraction: spare, DutyCycle: duty, Sigma: 0}
			est, err := ChipLifetime(1e6, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := 1e6 / duty
			if est.MeanSeconds != want || est.P05 != want || est.P95 != want {
				t.Errorf("spare %v duty %v: %+v, want every figure exactly %v", spare, duty, est, want)
			}
			if est.ArraysTolerated != int(spare*64) {
				t.Errorf("tolerated = %d, want %d", est.ArraysTolerated, int(spare*64))
			}
		}
	}
}

// The exact mean, P05 and P95 against the chip sampler, at the minimum
// (k = 0) and past it (k > 0): each within 4 standard errors, the
// quantiles in probability (the sampled fraction of chips dead by the
// exact quantile).
func TestChipLifetimeMatchesSampler(t *testing.T) {
	const median, chips = 3e6, 4000
	for i, cfg := range []Config{
		{Arrays: 256, SpareFraction: 0, DutyCycle: 1, Sigma: 0.3},
		{Arrays: 256, SpareFraction: 0.1, DutyCycle: 1, Sigma: 0.3},
		{Arrays: 64, SpareFraction: 0.25, DutyCycle: 0.01, Sigma: 0.6},
		{Arrays: 3, SpareFraction: 0.5, DutyCycle: 1, Sigma: 1.2},
	} {
		est, err := ChipLifetime(median, cfg)
		if err != nil {
			t.Fatal(err)
		}
		samples := sampleChips(median, cfg, chips, int64(i+1))
		var sum, sumSq float64
		for _, s := range samples {
			sum += s
			sumSq += s * s
		}
		mean := sum / chips
		se := math.Sqrt((sumSq/chips - mean*mean) / (chips - 1))
		if math.Abs(mean-est.MeanSeconds) > 4*se {
			t.Errorf("%+v: sampled mean %.6g ± %.3g, exact %.6g", cfg, mean, se, est.MeanSeconds)
		}
		for _, c := range []struct{ q, x float64 }{{0.05, est.P05}, {0.95, est.P95}} {
			dead := 0
			for _, s := range samples {
				if s <= c.x {
					dead++
				}
			}
			frac := float64(dead) / chips
			if se := math.Sqrt(c.q * (1 - c.q) / chips); math.Abs(frac-c.q) > 4*se {
				t.Errorf("%+v: %.4f of sampled chips dead by the exact q=%v quantile %.6g (SE %.4f)", cfg, frac, c.q, c.x, se)
			}
		}
	}
}

// The quantiles solve the order statistic's CDF, and k = 0 reduces to the
// minimum's closed form; halving the duty cycle doubles every figure.
func TestChipLifetimeQuantilesExact(t *testing.T) {
	const median = 3.0343e6
	for _, cfg := range []Config{
		{Arrays: 1024, SpareFraction: 0, DutyCycle: 1, Sigma: 0.3},
		{Arrays: 1024, SpareFraction: 0.1, DutyCycle: 1, Sigma: 0.3},
		{Arrays: 16, SpareFraction: 0.5, DutyCycle: 1, Sigma: 1},
		{Arrays: 1, SpareFraction: 0, DutyCycle: 1, Sigma: 2},
	} {
		est, err := ChipLifetime(median, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := stats.LognormalMedian(median, cfg.Sigma)
		k := est.ArraysTolerated
		for _, c := range []struct{ q, x float64 }{{0.05, est.P05}, {0.95, est.P95}} {
			if got := 1 - binomialAtMost(cfg.Arrays, k, l.CDF(c.x)); math.Abs(got-c.q) > 1e-9 {
				t.Errorf("%+v: P(T ≤ P%02.0f) = %.12f", cfg, 100*c.q, got)
			}
			if k == 0 {
				want := l.Quantile(-math.Expm1(math.Log1p(-c.q) / float64(cfg.Arrays)))
				if math.Abs(c.x/want-1) > 1e-12 {
					t.Errorf("%+v: k=0 q=%v quantile %.17g, closed form %.17g", cfg, c.q, c.x, want)
				}
			}
		}
		if !(est.P05 < est.MeanSeconds && est.MeanSeconds < est.P95) {
			t.Errorf("%+v: mean %g outside [P05 %g, P95 %g]", cfg, est.MeanSeconds, est.P05, est.P95)
		}
		half := cfg
		half.DutyCycle /= 2
		slow, err := ChipLifetime(median, half)
		if err != nil {
			t.Fatal(err)
		}
		if slow.MeanSeconds != 2*est.MeanSeconds || slow.P05 != 2*est.P05 || slow.P95 != 2*est.P95 {
			t.Errorf("%+v: half duty %+v, want exactly twice %+v", cfg, slow, est)
		}
	}
}

// Spares extend chip life under variation: tolerating 25% failures moves
// the replacement time from the minimum order statistic to the 25th
// percentile one.
func TestSparesExtendLifetime(t *testing.T) {
	base := Config{Arrays: 64, SpareFraction: 0, DutyCycle: 1, Sigma: 0.5}
	spared := base
	spared.SpareFraction = 0.25
	noSpare, err := ChipLifetime(1e6, base)
	if err != nil {
		t.Fatal(err)
	}
	withSpare, err := ChipLifetime(1e6, spared)
	if err != nil {
		t.Fatal(err)
	}
	if withSpare.MeanSeconds <= noSpare.MeanSeconds {
		t.Errorf("spares should extend life: %g vs %g", withSpare.MeanSeconds, noSpare.MeanSeconds)
	}
	if withSpare.ArraysTolerated != 16 {
		t.Errorf("tolerated = %d, want 16", withSpare.ArraysTolerated)
	}
	// With variation, the first of 64 arrays dies well before the median.
	if noSpare.MeanSeconds >= 1e6 {
		t.Errorf("first-failure of 64 varying arrays (%g) should undercut the median 1e6", noSpare.MeanSeconds)
	}
	if !(noSpare.P05 <= noSpare.MeanSeconds && noSpare.MeanSeconds <= noSpare.P95) {
		t.Error("quantiles disordered")
	}
}

// More arrays with zero spare ⇒ earlier first failure (minimum of more
// draws).
func TestMoreArraysFailSooner(t *testing.T) {
	small := Config{Arrays: 8, SpareFraction: 0, DutyCycle: 1, Sigma: 0.5}
	big := Config{Arrays: 512, SpareFraction: 0, DutyCycle: 1, Sigma: 0.5}
	s, err := ChipLifetime(1e6, small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChipLifetime(1e6, big)
	if err != nil {
		t.Fatal(err)
	}
	if b.MeanSeconds >= s.MeanSeconds {
		t.Errorf("512 arrays (%g) should fail sooner than 8 (%g)", b.MeanSeconds, s.MeanSeconds)
	}
}

func TestChipLifetimeErrors(t *testing.T) {
	cfg := Config{Arrays: 4, DutyCycle: 1}
	if _, err := ChipLifetime(0, cfg); err == nil {
		t.Error("zero array lifetime accepted")
	}
	if _, err := ChipLifetime(1, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}
