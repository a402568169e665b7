package stats

import (
	"math"
	"sort"
	"testing"
)

func TestMaxMean(t *testing.T) {
	c := []uint64{1, 5, 3}
	if Summarize(c).Max != 5 {
		t.Error("max wrong")
	}
	if Mean(c) != 3 {
		t.Error("mean wrong")
	}
	if Summarize(nil).Max != 0 || Mean(nil) != 0 {
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
	if got := CoV([]uint64{4, 4, 4, 4}); got != 0 {
		t.Errorf("uniform CoV = %v", got)
	}
	got := CoV([]uint64{0, 8})
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("CoV = %v, want 1", got)
	}
	if !math.IsNaN(CoV(nil)) {
		t.Error("empty CoV should be NaN")
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
	fromCounts, err := FromCounts([]uint64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fromCounts.At(1, 0) != 4 {
		t.Error("FromCounts layout wrong")
	}
	if _, err := FromCounts([]uint64{1, 2}, 2, 3); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestNormalized(t *testing.T) {
	g := NewGrid(1, 4)
	copy(g.Data, []float64{0, 1, 2, 4})
	n := g.Normalized()
	want := []float64{0, 0.25, 0.5, 1}
	for i := range want {
		if n.Data[i] != want[i] {
			t.Errorf("normalized[%d] = %v, want %v", i, n.Data[i], want[i])
		}
	}
	// Zero grid unchanged, no division by zero.
	z := NewGrid(2, 2).Normalized()
	for _, v := range z.Data {
		if v != 0 {
			t.Error("zero grid should stay zero")
		}
	}
}

func TestDownsample(t *testing.T) {
	g := NewGrid(4, 4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			g.Set(r, c, float64(r*4+c))
		}
	}
	d, err := g.Downsample(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Top-left block {0,1,4,5} means 2.5.
	if d.At(0, 0) != 2.5 {
		t.Errorf("block mean = %v, want 2.5", d.At(0, 0))
	}
	if d.At(1, 1) != 12.5 {
		t.Errorf("block mean = %v, want 12.5", d.At(1, 1))
	}
	// Total mass preserved (means of equal blocks).
	if _, err := g.Downsample(8, 2); err == nil {
		t.Error("upsample accepted")
	}
	if _, err := g.Downsample(0, 2); err == nil {
		t.Error("zero dims accepted")
	}
	// Non-dividing sizes still cover everything.
	d2, err := g.Downsample(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Rows != 3 || d2.Cols != 3 {
		t.Error("output shape wrong")
	}
}

func TestTranspose(t *testing.T) {
	g := NewGrid(2, 3)
	g.Set(0, 2, 9)
	tr := g.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 0) != 9 {
		t.Error("transpose wrong")
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
