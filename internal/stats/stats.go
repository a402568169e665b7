// Package stats provides the distribution summaries and grid operations
// the evaluation uses: the fused max/mean/CoV Summary, exact
// percentiles, the Gini index of write-count imbalance, and mean-pooling
// downsampling for heatmaps.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean.
func Mean(counts []uint64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var s float64
	for _, c := range counts {
		s += float64(c)
	}
	return s / float64(len(counts))
}

// CoV returns the coefficient of variation (σ/µ).
func CoV(counts []uint64) float64 {
	µ := Mean(counts)
	if µ == 0 || len(counts) == 0 {
		return math.NaN()
	}
	var ss float64
	for _, c := range counts {
		d := float64(c) - µ
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(counts))) / µ
}

// Summary is a one-pass digest of a count distribution: the fused
// uint64→float64 statistics pass behind Summarize, carrying everything
// the report and serving paths previously derived from three or four
// separate full scans (Max, Mean, MaxOverMean, CoV).
type Summary struct {
	// N is the cell count.
	N int
	// Max is the largest count.
	Max uint64
	// Total is the sum of all counts.
	Total uint64
	// Mean is the arithmetic mean.
	Mean float64
	// CoV is the coefficient of variation σ/µ (NaN for empty or all-zero
	// input), computed with Welford's recurrence — numerically stable even
	// when σ ≪ µ, unlike the E[x²]−µ² shortcut.
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
// one Summarize call replaces a Max + Mean + CoV (two-pass) cascade.
func Summarize(counts []uint64) Summary {
	s := Summary{N: len(counts)}
	var mean, m2 float64
	for i, c := range counts {
		if c > s.Max {
			s.Max = c
		}
		s.Total += c
		f := float64(c)
		d := f - mean
		mean += d / float64(i+1)
		m2 += d * (f - mean)
	}
	if s.N == 0 {
		s.CoV = math.NaN()
		return s
	}
	s.Mean = mean
	if mean == 0 {
		s.CoV = math.NaN()
	} else {
		s.CoV = math.Sqrt(m2/float64(s.N)) / mean
	}
	return s
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
