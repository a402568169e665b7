// Package stats provides the distribution summaries and grid operations
// the evaluation uses: the fused max/mean/CoV Summary, finished from
// exact integer moments (Moments), exact percentiles, the Gini index of
// write-count imbalance, and mean-pooling downsampling for heatmaps.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Summary is a one-pass digest of a count distribution: the fused
// statistics pass behind Summarize, carrying everything the report and
// serving paths previously derived from three or four separate full
// scans (Max, Mean, MaxOverMean, CoV).
//
// Total, Mean and CoV come from exact integer sums (see Moments), so
// whenever Σc < 2^64 — the range in which Total is exact — Mean is Σc/N
// correctly rounded and CoV is within one ulp of σ/µ, however small σ is
// next to µ.
type Summary struct {
	// N is the cell count.
	N int
	// Max is the largest count.
	Max uint64
	// Total is the sum of all counts.
	Total uint64
	// Mean is the arithmetic mean.
	Mean float64
	// CoV is the coefficient of variation σ/µ, with σ the population
	// standard deviation (NaN for empty or all-zero input).
	CoV float64
}

// MaxOverMean is the imbalance factor Max/Mean — the quantity that
// directly determines lifetime loss (NaN when the mean is zero).
func (s Summary) MaxOverMean() float64 {
	if s.Mean == 0 {
		return math.NaN()
	}
	return float64(s.Max) / s.Mean
}

// Summarize computes max, total, mean and the coefficient of variation
// in a single pass over the counts. It exists so summary consumers stop
// copying or rescanning multi-megabyte distributions once per statistic:
// one Summarize call replaces a Max + Mean + CoV (two-pass) cascade. The
// per-cell work is integer only (Moments.Add); the mean and CoV cost one
// finishing step per call, not per cell.
func Summarize(counts []uint64) Summary {
	var mx uint64
	var m Moments
	for _, c := range counts {
		mx = max(mx, c)
		m = m.Add(c)
	}
	mean, cov := m.MeanCoV(len(counts))
	return Summary{N: len(counts), Max: mx, Total: m.sum, Mean: mean, CoV: cov}
}

// Moments holds the exact integer sums a distribution's mean and CoV
// come from: Σc, and Σc² as a 128-bit integer. Every c ≤ Σc, so while
// Σc < 2^64 holds, Σc² ≤ (Σc)² < 2^128 cannot overflow either. The zero
// value is the empty sum.
type Moments struct {
	sum        uint64 // Σc
	sqHi, sqLo uint64 // Σc² = sqHi·2^64 + sqLo
}

// Add returns m with one more count c. It is a value method so that a
// loop accumulating into a local Moments keeps the three words in
// registers.
func (m Moments) Add(c uint64) Moments {
	hi, lo := bits.Mul64(c, c)
	var carry uint64
	m.sqLo, carry = bits.Add64(m.sqLo, lo, 0)
	m.sqHi += hi + carry
	m.sum += c
	return m
}

// MeanCoV finishes the sums of n counts: the mean Σc/n, correctly
// rounded, and the coefficient of variation √(n·Σc² − (Σc)²)/Σc.
// n·Σc² − (Σc)² is formed exactly in 192 bits and divided by (Σc)² with
// one rounding before the square root, so the CoV is within one ulp of
// the exact value. Empty input has mean 0; empty and all-zero input have
// a NaN CoV.
func (m Moments) MeanCoV(n int) (mean, cov float64) {
	if n <= 0 || m.sum == 0 {
		return 0, math.NaN()
	}
	mean = quo(u192{0, 0, m.sum}, uint64(n), 1)
	// n·Σc², 192 bits.
	p1, p0 := bits.Mul64(uint64(n), m.sqLo)
	p2, q1 := bits.Mul64(uint64(n), m.sqHi)
	p1, carry := bits.Add64(p1, q1, 0)
	p2 += carry
	// − (Σc)², which Cauchy–Schwarz keeps from going negative.
	s1, s0 := bits.Mul64(m.sum, m.sum)
	var borrow uint64
	p0, borrow = bits.Sub64(p0, s0, 0)
	p1, borrow = bits.Sub64(p1, s1, borrow)
	p2 -= borrow
	return mean, math.Sqrt(quo(u192{p2, p1, p0}, m.sum, m.sum))
}

// u192 is a 192-bit unsigned integer, most significant word first.
type u192 [3]uint64

// quo returns x/(a·b) rounded once to the nearest float64 (a, b > 0).
// x is shifted up until its top bit is set, so the integer quotient has
// at least 64 significant bits; a nonzero remainder of either division
// is folded into the quotient's lowest bit, which lies below the
// rounding position, so the conversion rounds the exact quotient.
func quo(x u192, a, b uint64) float64 {
	x, k := x.normalize()
	q, ra := x.div(a)
	q, rb := q.div(b)
	if ra|rb != 0 {
		q[2] |= 1
	}
	return math.Ldexp(q.float(), -k)
}

// normalize shifts x left until its top bit is set and returns the
// shift; zero stays zero.
func (x u192) normalize() (u192, int) {
	k := 0
	for x[0] == 0 && k < 192 {
		x = u192{x[1], x[2], 0}
		k += 64
	}
	z := uint(bits.LeadingZeros64(x[0])) % 64
	return u192{x[0]<<z | x[1]>>(64-z), x[1]<<z | x[2]>>(64-z), x[2] << z}, k + int(z)
}

// div returns x/d and the remainder (d > 0).
func (x u192) div(d uint64) (u192, uint64) {
	var q u192
	var r uint64
	for i, w := range x {
		q[i], r = bits.Div64(r, w, d)
	}
	return q, r
}

// float returns x rounded to the nearest float64: any set bit below
// its top 64 significant bits is folded into the lowest of them, below
// the rounding position, so their conversion rounds x itself.
func (x u192) float() float64 {
	x, k := x.normalize()
	top := x[0]
	if x[1]|x[2] != 0 {
		top |= 1
	}
	return math.Ldexp(float64(top), 128-k)
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of the counts by
// nearest-rank on a quickselect partition — O(n) expected, no full sort,
// so the telemetry sampler can afford it per epoch on paper-scale
// (1024×1024) distributions. NaN on empty input.
func Percentile(counts []uint64, q float64) float64 {
	v, _ := PercentileReuse(counts, q, nil)
	return v
}

// PercentileReuse is Percentile with a caller-provided scratch slice, so
// per-epoch samplers avoid one allocation per call: work is grown when
// too small and handed back for the next call. The input is never
// mutated.
func PercentileReuse(counts []uint64, q float64, work []uint64) (float64, []uint64) {
	n := len(counts)
	if n == 0 {
		return math.NaN(), work
	}
	if cap(work) < n {
		work = make([]uint64, n)
	}
	work = work[:n]
	copy(work, counts)
	return float64(quickselect(work, quantileRank(q, n))), work
}

// RadixBuckets is the histogram width of PercentileRadix and
// PercentileFromHist: 4096 buckets resolve 12 bits per pass, and the
// bucket array stays a cache-resident 16 KB.
const RadixBuckets = 4096

// RadixShift returns the smallest shift mapping values in [0, max] into
// RadixBuckets buckets. Callers fusing histogram construction into a
// pass of their own may use a stale (understated) max — values beyond it
// clamp into the top bucket, which PercentileFromHist still resolves
// exactly.
func RadixShift(max uint64) uint {
	var shift uint
	for max>>shift >= RadixBuckets {
		shift++
	}
	return shift
}

// PercentileRadix returns the same exact nearest-rank quantile as
// Percentile, given the slice's maximum (which telemetry callers already
// have from a fused statistics pass): one bucketing pass finds the
// bucket holding the target rank, a second collects only that bucket's
// elements — typically n/4096 of them — for a tiny final select. The
// input is never mutated; work is scratch as in PercentileReuse.
func PercentileRadix(counts []uint64, q float64, max uint64, work []uint64) (float64, []uint64) {
	if len(counts) == 0 {
		return math.NaN(), work
	}
	shift := RadixShift(max)
	var hist [RadixBuckets]uint32
	for _, c := range counts {
		b := c >> shift
		if b >= RadixBuckets {
			b = RadixBuckets - 1 // counts above the stated max
		}
		hist[b]++
	}
	return PercentileFromHist(counts, q, &hist, shift, work)
}

// PercentileFromHist is the resolution half of PercentileRadix, for
// callers that built the radix histogram inside a fused pass over the
// same counts: hist[min(c>>shift, RadixBuckets-1)] must count every
// element. It scans the histogram for the bucket holding the target
// rank, collects that bucket's elements from counts, and selects the
// exact value. The input is never mutated; work is scratch as in
// PercentileReuse.
func PercentileFromHist(counts []uint64, q float64, hist *[RadixBuckets]uint32, shift uint, work []uint64) (float64, []uint64) {
	n := len(counts)
	if n == 0 {
		return math.NaN(), work
	}
	k := quantileRank(q, n)
	cum, target := 0, 0
	for ; target < RadixBuckets-1; target++ {
		next := cum + int(hist[target])
		if next > k {
			break
		}
		cum = next
	}
	work = work[:0]
	for _, c := range counts {
		b := c >> shift
		if b >= RadixBuckets {
			b = RadixBuckets - 1
		}
		if int(b) == target {
			work = append(work, c)
		}
	}
	return float64(quickselect(work, k-cum)), work
}

// quantileRank maps a quantile to its nearest-rank index, clamping q
// into [0, 1].
func quantileRank(q float64, n int) int {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return int(q * float64(n-1))
}

// quickselect partitions work in place until its k-th smallest element
// (0-based) is at index k, and returns it — the final select of
// PercentileReuse, PercentileFromHist and PercentileRadixFloat. NaNs are
// not supported.
func quickselect[T cmp.Ordered](work []T, k int) T {
	lo, hi := 0, len(work)-1
	for lo < hi {
		// Median-of-three pivot guards against the sorted/constant
		// inputs wear distributions often are.
		mid := lo + (hi-lo)/2
		if work[mid] < work[lo] {
			work[mid], work[lo] = work[lo], work[mid]
		}
		if work[hi] < work[lo] {
			work[hi], work[lo] = work[lo], work[hi]
		}
		if work[hi] < work[mid] {
			work[hi], work[mid] = work[mid], work[hi]
		}
		pivot := work[mid]
		i, j := lo, hi
		for i <= j {
			for work[i] < pivot {
				i++
			}
			for work[j] > pivot {
				j--
			}
			if i <= j {
				work[i], work[j] = work[j], work[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return work[k]
}

// Gini returns the Gini index of the counts (0 = perfectly even, →1 =
// concentrated on few cells).
func Gini(counts []uint64) float64 {
	v, _ := GiniReuse(counts, nil)
	return v
}

// GiniReuse is Gini with a caller-provided float64 scratch slice (grown
// when too small and handed back for the next call), so summary loops
// over many distributions sort in one reused buffer instead of
// allocating a full float64 copy per call. The input is never mutated.
func GiniReuse(counts []uint64, work []float64) (float64, []float64) {
	n := len(counts)
	if n == 0 {
		return math.NaN(), work
	}
	if cap(work) < n {
		work = make([]float64, n)
	}
	work = work[:n]
	for i, c := range counts {
		work[i] = float64(c)
	}
	sort.Float64s(work)
	var cum, total float64
	for i, v := range work {
		cum += v * float64(i+1)
		total += v
	}
	if total == 0 {
		return math.NaN(), work
	}
	return (2*cum)/(float64(n)*total) - (float64(n)+1)/float64(n), work
}

// Grid is a dense row-major float matrix.
type Grid struct {
	Rows, Cols int
	Data       []float64 // [r*Cols+c]
}

// NewGrid allocates a zero grid.
func NewGrid(rows, cols int) *Grid {
	return &Grid{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (g *Grid) At(r, c int) float64 { return g.Data[r*g.Cols+c] }

// Set assigns element (r, c).
func (g *Grid) Set(r, c int, v float64) { g.Data[r*g.Cols+c] = v }

// Max returns the largest element.
func (g *Grid) Max() float64 {
	m := math.Inf(-1)
	for _, v := range g.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Heatmap turns a rows×cols count matrix (row-major) into a grid
// normalized so its maximum is 1 — the paper's heatmaps are normalized to
// maximum utilization = 1 — mean-pooled to at most maxDim cells on each
// axis (maxDim ≤ 0 keeps every cell). Block boundaries are distributed
// evenly when sizes do not divide; each block is summed as integers and
// divided once. An all-zero matrix stays zero.
func Heatmap(counts []uint64, rows, cols, maxDim int) (*Grid, error) {
	if rows < 0 || cols < 0 || rows*cols != len(counts) {
		return nil, fmt.Errorf("stats: %d counts do not fill %dx%d", len(counts), rows, cols)
	}
	outR, outC := rows, cols
	if maxDim > 0 {
		outR, outC = min(outR, maxDim), min(outC, maxDim)
	}
	g := NewGrid(outR, outC)
	var m float64
	for or := 0; or < outR; or++ {
		r0, r1 := or*rows/outR, (or+1)*rows/outR
		for oc := 0; oc < outC; oc++ {
			c0, c1 := oc*cols/outC, (oc+1)*cols/outC
			var sum uint64
			for r := r0; r < r1; r++ {
				for _, v := range counts[r*cols+c0 : r*cols+c1] {
					sum += v
				}
			}
			v := float64(sum) / float64((r1-r0)*(c1-c0))
			g.Data[or*outC+oc] = v
			m = max(m, v)
		}
	}
	if m > 0 {
		for i := range g.Data {
			g.Data[i] /= m
		}
	}
	return g, nil
}
