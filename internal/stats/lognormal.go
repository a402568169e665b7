package stats

import (
	"math"
	"math/rand"
)

// Lognormal is the one audited lognormal endurance model shared by every
// variability consumer in the tree: the fleet survival engine and its
// per-cell reference sampler (internal/fleet), and the chip-level Monte
// Carlo and per-bank endurance draws (internal/system). It is parameterized by the log-space location and
// shape — a draw is exp(Mu + Sigma·N(0,1)), so exp(Mu) is the median.
//
// Sigma = 0 degenerates to the point mass at the median: Draw and Fill
// return exactly exp(Mu), Quantile returns the median for every p in
// (0, 1), and CDF/SF become the step function at the median.
type Lognormal struct {
	// Mu is the mean of ln X (ln of the median).
	Mu float64
	// Sigma is the standard deviation of ln X (≥ 0).
	Sigma float64
}

// LognormalMedian builds the model from its median (exp(Mu)) and shape.
func LognormalMedian(median, sigma float64) Lognormal {
	return Lognormal{Mu: math.Log(median), Sigma: sigma}
}

// Median returns exp(Mu).
func (l Lognormal) Median() float64 { return math.Exp(l.Mu) }

// Draw returns one lognormal sample from the given source. Every caller
// threads an explicit seeded source so draws are reproducible and the
// seed lands in run manifests.
func (l Lognormal) Draw(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Fill fills dst with independent draws from the given source.
func (l Lognormal) Fill(dst []float64, rng *rand.Rand) {
	for i := range dst {
		dst[i] = l.Draw(rng)
	}
}

// CDF returns P(X ≤ x). Non-positive x has probability 0.
func (l Lognormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if l.Sigma == 0 {
		if math.Log(x) < l.Mu {
			return 0
		}
		return 1
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// SF returns the survival function P(X > x) = 1 − CDF(x), computed
// through erfc directly so the deep upper tail keeps full precision
// (1 − CDF cancels to 0 long before erfc underflows).
func (l Lognormal) SF(x float64) float64 {
	if x <= 0 {
		return 1
	}
	if l.Sigma == 0 {
		if math.Log(x) < l.Mu {
			return 1
		}
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// Quantile returns the p-quantile exp(Mu + Sigma·Φ⁻¹(p)). p outside
// (0, 1) returns 0 (p ≤ 0) or +Inf (p ≥ 1) for Sigma > 0.
func (l Lognormal) Quantile(p float64) float64 {
	if l.Sigma == 0 {
		return math.Exp(l.Mu)
	}
	return math.Exp(l.Mu + l.Sigma*NormQuantile(p))
}

// QuantileMin returns the p-quantile of the MINIMUM of n independent
// copies of X: with F_min(x) = 1 − (1 − F(x))ⁿ, the inverse is
// F⁻¹(1 − (1 − p)^{1/n}). This is the order-statistic collapse behind
// the fleet engine — sampling the weakest of n identically-worn cells
// in O(1) instead of n draws. Computed through expm1/log1p so p values
// down to the subnormal range map to accurate deep-tail quantiles.
// n need not be integral (it is a float for callers that merge groups).
func (l Lognormal) QuantileMin(p, n float64) float64 {
	if l.Sigma == 0 {
		return math.Exp(l.Mu)
	}
	// pc = 1 − (1−p)^{1/n}, kept accurate for tiny p and huge n where
	// the naive form rounds to 0.
	pc := -math.Expm1(math.Log1p(-p) / n)
	return math.Exp(l.Mu + l.Sigma*NormQuantile(pc))
}

// MinCDF returns P(min of n iid copies ≤ x) = 1 − (1 − F(x))ⁿ, through
// the survival function so the deep tail stays exact.
func (l Lognormal) MinCDF(x, n float64) float64 {
	sf := l.SF(x)
	if sf == 0 {
		return 1
	}
	// 1 − sfⁿ = −expm1(n·ln(sf))
	return -math.Expm1(n * math.Log(sf))
}

// MinHazard returns −ln P(min of n iid copies > x) = −n·ln SF(x) — the
// cumulative-hazard form of MinCDF the fleet engine sums across groups.
// The deep lower tail is computed from the CDF as −n·log1p(−F), because
// −ln SF quantizes at one ulp of 1 (≈1.1e−16) exactly where the fleet
// engine needs hazard resolution down to ~5e−17; the F route keeps full
// relative precision to subnormal F. +Inf when x is beyond the
// survivable range.
func (l Lognormal) MinHazard(x, n float64) float64 {
	f := l.CDF(x)
	if f == 0 {
		return 0
	}
	if f < 0.5 {
		return -n * math.Log1p(-f)
	}
	sf := l.SF(x)
	if sf == 0 {
		return math.Inf(1)
	}
	return -n * math.Log(sf)
}

// NormQuantile returns Φ⁻¹(p), the standard normal quantile, via
// Wichura's AS241 PPND16 rational approximations — accurate to full
// double precision over the entire open interval, including tails down
// to p ≈ 5e−324 where the erfinv route (Erfinv(2p−1)) loses the
// argument to rounding against ±1. p ≤ 0 returns −Inf, p ≥ 1 returns
// +Inf.
func NormQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		// Central region: rational in r = 0.180625 − q².
		r := 0.180625 - q*q
		num := ((((((2.5090809287301226727e3*r+3.3430575583588128105e4)*r+
			6.7265770927008700853e4)*r+4.5921953931549871457e4)*r+
			1.3731693765509461125e4)*r+1.9715909503065514427e3)*r+
			1.3314166789178437745e2)*r + 3.3871328727963666080e0
		den := ((((((5.2264952788528545610e3*r+2.8729085735721942674e4)*r+
			3.9307895800092710610e4)*r+2.1213794301586595867e4)*r+
			5.3941960214247511077e3)*r+6.8718700749205790830e2)*r+
			4.2313330701600911252e1)*r + 1
		return q * num / den
	}
	// Tail regions: rational in r = sqrt(−ln(min(p, 1−p))).
	r := p
	if q > 0 {
		r = 1 - p
	}
	r = math.Sqrt(-math.Log(r))
	var v float64
	if r <= 5 {
		r -= 1.6
		num := ((((((7.74545014278341407640e-4*r+2.27238449892691845833e-2)*r+
			2.41780725177450611770e-1)*r+1.27045825245236838258e0)*r+
			3.64784832476320460504e0)*r+5.76949722146069140550e0)*r+
			4.63033784615654529590e0)*r + 1.42343711074968357734e0
		den := ((((((1.05075007164441684324e-9*r+5.47593808499534494600e-4)*r+
			1.51986665636164571966e-2)*r+1.48103976427480074590e-1)*r+
			6.89767334985100004550e-1)*r+1.67638483018380384940e0)*r+
			2.05319162663775882187e0)*r + 1
		v = num / den
	} else {
		r -= 5
		num := ((((((2.01033439929228813265e-7*r+2.71155556874348757815e-5)*r+
			1.24266094738807843860e-3)*r+2.65321895265761230930e-2)*r+
			2.96560571828504891230e-1)*r+1.78482653991729133580e0)*r+
			5.46378491116411436990e0)*r + 6.65790464350110377720e0
		den := ((((((2.04426310338993978564e-15*r+1.42151175831644588870e-7)*r+
			1.84631831751005468180e-5)*r+7.86869131145613259100e-4)*r+
			1.48753612908506148525e-2)*r+1.36929880922735805310e-1)*r+
			5.99832206555887937690e-1)*r + 1
		v = num / den
	}
	if q < 0 {
		return -v
	}
	return v
}
