package main

import (
	"math"
	"sort"
)

// summary is one side's sample: median, quartiles and median absolute
// deviation.
type summary struct {
	median, q1, q3, mad float64
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - q2)
	}
	_, mad, _ := quartiles(dev)
	return summary{median: q2, q1: q1, q3: q3, mad: mad}
}

// comparison is the verdict on one benchmark or metric over paired runs.
type comparison struct {
	base, head summary
	ratio      float64 // head median / base median
	won        int     // pairs in which head did better than base
	gapOverIQR float64 // |median change| / base interquartile range
	verdict    string  // "better", "worse", or "no change"
}

// compare judges paired samples b (base) and h (head), pair i being
// (b[i], h[i]). The change of the medians counts only when it clears
// both threshold percent of the base median and k times the larger MAD.
func compare(b, h []float64, lowerIsBetter bool, threshold, k float64) comparison {
	c := comparison{base: summarize(b), head: summarize(h), verdict: "no change"}
	c.ratio = c.head.median / c.base.median
	for i := range b {
		if (h[i] < b[i]) == lowerIsBetter && h[i] != b[i] {
			c.won++
		}
	}
	gap := c.head.median - c.base.median
	c.gapOverIQR = math.Abs(gap) / (c.base.q3 - c.base.q1)
	if 100*math.Abs(gap) > threshold*math.Abs(c.base.median) && math.Abs(gap) > k*max(c.base.mad, c.head.mad) {
		c.verdict = "worse"
		if (gap < 0) == lowerIsBetter {
			c.verdict = "better"
		}
	}
	return c
}

// quartiles returns the three cut points of xs computed as Python's
// statistics.quantiles(n=4) does (the exclusive method), which is also
// what bench/run.sh -compare prints. A single value is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}
