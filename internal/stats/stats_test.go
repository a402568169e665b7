package stats

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

func TestMaxMean(t *testing.T) {
	c := []uint64{1, 5, 3}
	if Summarize(c).Max != 5 {
		t.Error("max wrong")
	}
	if Summarize(c).Mean != 3 {
		t.Error("mean wrong")
	}
	if s := Summarize(nil); s.Max != 0 || s.Mean != 0 {
		t.Error("empty handling wrong")
	}
}

func TestMaxOverMean(t *testing.T) {
	if got := Summarize([]uint64{2, 2, 2}).MaxOverMean(); got != 1 {
		t.Errorf("balanced = %v, want 1", got)
	}
	if got := Summarize([]uint64{0, 0, 6}).MaxOverMean(); got != 3 {
		t.Errorf("concentrated = %v, want 3", got)
	}
	if !math.IsNaN(Summarize([]uint64{0, 0}).MaxOverMean()) {
		t.Error("zero distribution should be NaN")
	}
}

func TestCoV(t *testing.T) {
	if got := Summarize([]uint64{4, 4, 4, 4}).CoV; got != 0 {
		t.Errorf("uniform CoV = %v", got)
	}
	got := Summarize([]uint64{0, 8}).CoV
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("CoV = %v, want 1", got)
	}
	if !math.IsNaN(Summarize(nil).CoV) {
		t.Error("empty CoV should be NaN")
	}
}

// Summarize against a math/big oracle: Σc and Σc² as big integers, the
// mean as the exact rational Σc/N rounded once, and the CoV as
// √(N·Σc² − (Σc)²)/Σc at 256 bits of precision. The mean must be the
// correctly rounded Σc/N and the CoV within 2 ulp of the oracle. The
// shapes reach every word of the exact sums: c² past 2^64 (a carry into
// Σc²'s high word), N·Σc² − (Σc)² past 2^128, and σ ≪ µ, where
// E[x²]−µ² cancels.
func TestSummarizeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	fill := func(n int, f func() uint64) []uint64 {
		c := make([]uint64, n)
		for i := range c {
			c[i] = f()
		}
		return c
	}
	cases := []struct {
		name   string
		counts []uint64
	}{
		{"empty", nil},
		{"one cell", []uint64{7}},
		{"all zeros", make([]uint64, 5)},
		{"constant", fill(1000, func() uint64 { return 123_456_789 })},
		{"random small", fill(1000, func() uint64 { return uint64(rng.Intn(100)) })},
		{"random small, one hot", append(fill(999, func() uint64 { return uint64(rng.Intn(3)) }), 5000)},
		{"paper scale", fill(1<<16, func() uint64 { return 1_000_000 + uint64(rng.Intn(200_000)) })},
		{"paper scale, skewed", fill(1<<16, func() uint64 { return uint64(rng.ExpFloat64() * 1e6) })},
		{"above 2^32", fill(4096, func() uint64 { return 1<<32 + uint64(rng.Int63n(1<<40)) })},
		{"near 2^62", []uint64{1<<62 - 1, 1<<62 + 12345, 1<<62 - 999_999, 3}},
		{"near 2^62, sum near 2^64", []uint64{1<<62 + 1<<61, 1<<62 + 1<<60 - 7, 1<<62 + 1<<59, 0, 1}},
		{"near 2^62 among zeros", append(make([]uint64, 4096), 1<<62+5, 1<<62-3)},
		{"σ ≪ µ", fill(4096, func() uint64 { return 1_000_000_000_000 + uint64(rng.Intn(2)) })},
		{"σ ≪ µ, one outlier", append(fill(4095, func() uint64 { return 1_000_000_000_000 }), 1_000_000_000_001)},
	}
	for _, tc := range cases {
		got := Summarize(tc.counts)
		sum, sq, n := new(big.Int), new(big.Int), int64(len(tc.counts))
		var mx uint64
		for _, c := range tc.counts {
			b := new(big.Int).SetUint64(c)
			sum.Add(sum, b)
			sq.Add(sq, b.Mul(b, b))
			mx = max(mx, c)
		}
		if !sum.IsUint64() {
			t.Fatalf("%s: Σc = %v does not fit 64 bits", tc.name, sum)
		}
		if got.N != len(tc.counts) || got.Max != mx || got.Total != sum.Uint64() {
			t.Errorf("%s: N, Max, Total = %d, %d, %d, want %d, %d, %v", tc.name, got.N, got.Max, got.Total, n, mx, sum)
		}
		if n == 0 {
			if got.Mean != 0 || !math.IsNaN(got.CoV) {
				t.Errorf("%s: mean, CoV = %v, %v, want 0, NaN", tc.name, got.Mean, got.CoV)
			}
			continue
		}
		if want, _ := new(big.Rat).SetFrac(sum, big.NewInt(n)).Float64(); got.Mean != want {
			t.Errorf("%s: mean = %v, want Σc/N = %v correctly rounded", tc.name, got.Mean, want)
		}
		if sum.Sign() == 0 {
			if !math.IsNaN(got.CoV) {
				t.Errorf("%s: all-zero CoV = %v, want NaN", tc.name, got.CoV)
			}
			continue
		}
		d := new(big.Int).Mul(big.NewInt(n), sq)
		d.Sub(d, new(big.Int).Mul(sum, sum))
		if d.Sign() == 0 {
			if got.CoV != 0 {
				t.Errorf("%s: CoV = %v, want exactly 0", tc.name, got.CoV)
			}
			continue
		}
		cov := new(big.Float).SetPrec(256).SetInt(d)
		cov.Sqrt(cov).Quo(cov, new(big.Float).SetPrec(256).SetInt(sum))
		want, _ := cov.Float64()
		if ulps := int64(math.Float64bits(got.CoV)) - int64(math.Float64bits(want)); ulps < -2 || ulps > 2 {
			t.Errorf("%s: CoV = %v, oracle %v (%d ulp)", tc.name, got.CoV, want, ulps)
		}
	}
}

func TestGini(t *testing.T) {
	if g := Gini([]uint64{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Errorf("uniform Gini = %v, want 0", g)
	}
	// All mass on one of n cells: Gini = (n−1)/n.
	g := Gini([]uint64{0, 0, 0, 100})
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("concentrated Gini = %v, want 0.75", g)
	}
	if !math.IsNaN(Gini(nil)) || !math.IsNaN(Gini([]uint64{0, 0})) {
		t.Error("degenerate Gini should be NaN")
	}
	// Order invariance.
	if Gini([]uint64{1, 2, 3, 4}) != Gini([]uint64{4, 3, 2, 1}) {
		t.Error("Gini not order invariant")
	}
}

func TestGridBasics(t *testing.T) {
	g := NewGrid(2, 3)
	g.Set(1, 2, 7)
	if g.At(1, 2) != 7 || g.Max() != 7 {
		t.Error("grid accessors wrong")
	}
	h, err := Heatmap([]uint64{1, 2, 3, 4, 5, 6}, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows != 2 || h.Cols != 3 || h.At(1, 0) != 4.0/6 || h.At(1, 2) != 1 {
		t.Error("Heatmap layout wrong")
	}
	if _, err := Heatmap([]uint64{1, 2}, 2, 3, 0); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestNormalized(t *testing.T) {
	n, err := Heatmap([]uint64{0, 1, 2, 4}, 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.25, 0.5, 1}
	for i := range want {
		if n.Data[i] != want[i] {
			t.Errorf("normalized[%d] = %v, want %v", i, n.Data[i], want[i])
		}
	}
	// Zero matrix stays zero, no division by zero.
	z, err := Heatmap(make([]uint64, 4), 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range z.Data {
		if v != 0 {
			t.Error("zero matrix should stay zero")
		}
	}
}

func TestDownsample(t *testing.T) {
	counts := make([]uint64, 16)
	for i := range counts {
		counts[i] = uint64(i)
	}
	d, err := Heatmap(counts, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Block means of {0,1,4,5}, {2,3,6,7}, {8,9,12,13}, {10,11,14,15},
	// normalized by the largest.
	for i, mean := range []float64{2.5, 4.5, 10.5, 12.5} {
		if d.Data[i] != mean/12.5 {
			t.Errorf("block %d = %v, want %v/12.5", i, d.Data[i], mean)
		}
	}
	// Non-dividing sizes still cover everything: row and column blocks
	// of 1, 1 and 2.
	d3, err := Heatmap(counts, 4, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Rows != 3 || d3.Cols != 3 || d3.At(0, 0) != 0 || d3.At(0, 1) != 1/12.5 || d3.At(2, 2) != 1 {
		t.Errorf("3x3 pooling wrong: %v", d3.Data)
	}
	// A cap above the shape keeps every cell; it never upsamples.
	up, err := Heatmap(counts, 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if up.Rows != 4 || up.Cols != 4 || up.At(3, 3) != 1 || up.At(1, 2) != 6.0/15 {
		t.Errorf("maxDim above the shape resampled: %dx%d", up.Rows, up.Cols)
	}
}

// Percentile is nearest-rank against a full sort, on adversarial shapes
// for the quickselect (sorted, reverse-sorted, constant, single).
func TestPercentile(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
	cases := [][]uint64{
		{7},
		{5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3},
	}
	for _, counts := range cases {
		sorted := make([]uint64, len(counts))
		copy(sorted, counts)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			k := int(q * float64(len(counts)-1))
			if got, want := Percentile(counts, q), float64(sorted[k]); got != want {
				t.Errorf("Percentile(%v, %v) = %v, want %v", counts, q, got, want)
			}
		}
	}
	// Out-of-range quantiles clamp; the input must not be mutated.
	in := []uint64{9, 1, 5}
	if got := Percentile(in, -1); got != 1 {
		t.Errorf("q<0 = %v, want min", got)
	}
	if got := Percentile(in, 2); got != 9 {
		t.Errorf("q>1 = %v, want max", got)
	}
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileRadix(t *testing.T) {
	if v, _ := PercentileRadix(nil, 0.5, 0, nil); !math.IsNaN(v) {
		t.Error("empty radix percentile should be NaN")
	}
	if v, _ := PercentileRadix([]uint64{0, 0, 0}, 0.9, 0, nil); v != 0 {
		t.Errorf("all-zero radix percentile = %v, want 0", v)
	}
	// Adversarial shapes across bucket-shift regimes: values below the
	// bucket count (shift 0), far above it (wide shift), and a max hint
	// smaller than the true max (top-bucket clamping).
	big := make([]uint64, 10_000)
	for i := range big {
		big[i] = uint64(i*i) % 1_000_003
	}
	cases := [][]uint64{
		{7},
		{5, 5, 5, 5},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{1 << 40, 3, 1 << 62, 9, 1 << 20, 1 << 20},
		big,
	}
	var work []uint64
	for _, counts := range cases {
		sorted := make([]uint64, len(counts))
		copy(sorted, counts)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		max := sorted[len(sorted)-1]
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			k := int(q * float64(len(counts)-1))
			want := float64(sorted[k])
			var got float64
			got, work = PercentileRadix(counts, q, max, work)
			if got != want {
				t.Errorf("PercentileRadix(len %d, %v) = %v, want %v", len(counts), q, got, want)
			}
			// An understated max clamps large values into the top bucket
			// but must not change the result.
			if got, _ := PercentileRadix(counts, q, max/16+1, nil); got != want {
				t.Errorf("PercentileRadix(len %d, %v) with low max = %v, want %v", len(counts), q, got, want)
			}
		}
	}
	in := []uint64{9, 1, 5}
	if _, _ = PercentileRadix(in, 0.5, 9, nil); in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("PercentileRadix mutated its input")
	}
}
