package stats

import "math"

// PercentileRadixFloat is PercentileRadix for non-negative float64
// samples — the fleet engine's quantile extractor, in place of a full
// sort.Float64s per call. It exploits
// the IEEE-754 ordering property: for non-negative finite floats the
// raw bit patterns order identically to the values, so one radix
// bucketing pass on Float64bits locates the bucket holding the target
// rank and a second pass collects only that bucket for a tiny exact
// select. Bucketing is offset by the stated minimum so that samples
// concentrated in a narrow range (the common case for first-failure
// lifetimes, which span a few octaves at most) still spread across the
// 4096 buckets instead of collapsing into a handful of exponent bins.
//
// min and max must bound the samples (stale bounds are safe: values
// outside clamp into the edge buckets, which the final select still
// resolves exactly). Negative values and NaNs are not supported. The
// input is never mutated; work is scratch as in PercentileReuse.
func PercentileRadixFloat(samples []float64, q, min, max float64, work []float64) (float64, []float64) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), work
	}
	lo := math.Float64bits(min)
	shift := RadixShift(math.Float64bits(max) - lo)
	bucket := func(v float64) uint64 {
		bits := math.Float64bits(v)
		if bits <= lo {
			return 0
		}
		b := (bits - lo) >> shift
		if b >= RadixBuckets {
			b = RadixBuckets - 1
		}
		return b
	}
	var hist [RadixBuckets]uint32
	for _, v := range samples {
		hist[bucket(v)]++
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
	for _, v := range samples {
		if int(bucket(v)) == target {
			work = append(work, v)
		}
	}
	return quickselect(work, k-cum), work
}
