package main

import (
	"math"
	"testing"
)

// Quartiles follow Python's statistics.quantiles(n=4): the values below
// are what it returns for the same inputs.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v, want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := summarize([]float64{1, 2, 3, 4, 100}); s.median != 3 || s.mad != 1 {
		t.Errorf("summary median %v MAD %v, want 3 and 1", s.median, s.mad)
	}
}

// A change counts only when it clears both the percentage threshold and
// k×MAD, and its direction follows the metric's.
func TestCompare(t *testing.T) {
	base := []float64{100, 104, 96, 102, 98}
	faster := []float64{50, 53, 49, 51, 47}
	c := compare(base, faster, true, 5, 3)
	if c.verdict != "better" || c.won != 5 || c.ratio != 0.5 {
		t.Errorf("halved time: %+v, want better, 5 won, ratio 0.5", c)
	}
	if c := compare(base, faster, false, 5, 3); c.verdict != "worse" || c.won != 0 {
		t.Errorf("halved throughput: %+v, want worse, 0 won", c)
	}
	if c.gapOverIQR != 50/(c.base.q3-c.base.q1) {
		t.Errorf("gap/IQR %v", c.gapOverIQR)
	}
	// 3% under a 5% threshold is no change, however tight the spread.
	tight := []float64{97, 97, 97, 97, 97}
	if c := compare([]float64{100, 100, 100, 100, 100}, tight, true, 5, 3); c.verdict != "no change" || c.won != 5 {
		t.Errorf("3%% change: %+v, want no change, 5 won", c)
	}
	// 10% inside a wide spread (MAD 20) is no change either.
	wide := []float64{60, 100, 140, 80, 120}
	if c := compare(wide, []float64{54, 90, 126, 72, 108}, true, 5, 3); c.verdict != "no change" {
		t.Errorf("10%% change in a wide spread: %+v, want no change", c)
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkHwEngine/engine-2         	       3	   8864908 ns/op	 6314573 B/op	     900 allocs/op
BenchmarkHwEngine/speedup-2        	       3	1356123741 ns/op	       140.4 speedup_x
BenchmarkPlain                     	      10	       123.5 ns/op
PASS`
	got, err := nsPerOp([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"BenchmarkHwEngine/engine": 8864908, "BenchmarkHwEngine/speedup": 1356123741, "BenchmarkPlain": 123.5}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 0 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := nsPerOp([]byte("BenchmarkX-2 10 123 ns/op 4.5\n")); err == nil {
		t.Error("odd value/unit pairing accepted")
	}
}
