package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count of every Histogram: one bucket
// per possible bits.Len64 of a recorded value (0..64), so bucketing is a
// single leading-zero count with no search and no configuration.
const histBuckets = 65

// Histogram is a lock-free log-bucketed distribution: recorded values
// land in powers-of-two buckets (value v goes to bucket bits.Len64(v),
// i.e. bucket i holds 2^(i-1) ≤ v < 2^i, bucket 0 holds v = 0) kept in a
// fixed array of atomics, alongside an exact sum and count. Like Counter
// and Gauge, a disabled Observe is one atomic load; enabled it is three
// atomic adds — cheap enough for request-granularity recording (job
// latency, queue wait, payload sizes), and deliberately never placed in
// the per-op replay loops.
//
// The scale factor converts raw recorded integers into exported units:
// duration histograms record nanoseconds and export seconds (scale 1e-9;
// every stage timer keeps one), size histograms record and export raw
// counts (scale 1). Exposition follows the Prometheus histogram
// convention — cumulative _bucket samples with le labels, then _sum and
// _count.
type Histogram struct {
	name    string
	scale   float64
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Observe records one raw value (negative values clamp to 0) when the
// layer is enabled; disabled it records nothing.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

// ObserveDuration records a duration on a nanosecond-scaled histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns how many values have been recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of recorded values in exported units
// (seconds for duration histograms).
func (h *Histogram) Sum() float64 { return float64(h.sum.Load()) * h.scale }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in exported units; it
// is HistogramSnapshot.Quantile on the current state. An empty histogram
// returns 0.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

func (h *Histogram) kind() string { return "histogram" }

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// bucketLE returns bucket i's inclusive raw upper bound: bucket 0 holds
// exactly 0, bucket i ≥ 1 covers 2^(i-1) .. 2^i - 1.
func bucketLE(i int) float64 { return math.Ldexp(1, i) - 1 }

// HistogramBucket is one non-empty bucket in a snapshot: the bucket's
// inclusive upper bound in exported units and its (non-cumulative)
// count.
type HistogramBucket struct {
	// LE is the bucket's inclusive upper bound in exported units.
	LE float64 `json:"le"`
	// Count is the number of values recorded in this bucket alone
	// (Prometheus exposition cumulates; snapshots stay per-bucket).
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of one histogram for
// manifests and Capture: exact count and sum plus the non-empty buckets.
type HistogramSnapshot struct {
	// Name is the registry name.
	Name string `json:"name"`
	// Count and Sum are the exact totals (Sum in exported units).
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	// Buckets lists the non-empty buckets in ascending bound order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Name: h.name, Count: h.count.Load(), Sum: h.Sum()}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n != 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{LE: bucketLE(i) * h.scale, Count: n})
		}
	}
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of a snapshot by linear
// interpolation inside the log bucket holding the target rank — exact to
// within one power-of-two bucket, which is the histogram's resolution by
// design. It serves live histograms (Histogram.Quantile), the -metrics
// table and tools that read histograms back from a manifest or the
// /metrics exposition. An empty snapshot returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		n := float64(b.Count)
		if cum+n >= rank {
			// The snapshot keeps only the upper bound; approximate the lower
			// bound as half of it (the log-bucket geometry).
			lo := b.LE / 2
			return lo + (rank-cum)/n*(b.LE-lo)
		}
		cum += n
	}
	return s.Buckets[len(s.Buckets)-1].LE
}
