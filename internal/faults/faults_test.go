package faults

import (
	"math"
	"math/rand"
	"testing"
)

// simulateUsable is the failure-placement sampler that the exact
// expectations replaced, kept as their test oracle. Each trial places
// `failed` cells uniformly at random without replacement in a rows×lanes
// array (partial Fisher–Yates) and records the fraction of (row, lane
// set) groups, lanes/sets cells each, that no failure touches. It returns
// the mean over trials and its standard error.
func simulateUsable(rows, lanes, sets, failed, trials int, seed int64) (mean, se float64) {
	rng := rand.New(rand.NewSource(seed))
	cells := make([]int, rows*lanes)
	for i := range cells {
		cells[i] = i
	}
	hit := make([]bool, rows*sets)
	width := lanes / sets
	var sum, sumSq float64
	for tr := 0; tr < trials; tr++ {
		clear(hit)
		for k := 0; k < failed; k++ {
			j := k + rng.Intn(len(cells)-k)
			cells[k], cells[j] = cells[j], cells[k]
			hit[cells[k]/lanes*sets+cells[k]%lanes/width] = true
		}
		usable := 0
		for _, h := range hit {
			if !h {
				usable++
			}
		}
		frac := float64(usable) / float64(len(hit))
		sum += frac
		sumSq += frac * frac
	}
	n := float64(trials)
	mean = sum / n
	variance := math.Max(sumSq/n-mean*mean, 0) * n / (n - 1)
	return mean, math.Sqrt(variance / n)
}

func TestUsableFractionExpectedEdges(t *testing.T) {
	if UsableFractionExpected(1024, 0) != 1 {
		t.Error("no failures should leave everything usable")
	}
	if UsableFractionExpected(1024, 1) != 0 {
		t.Error("all failed should leave nothing usable")
	}
	// One failed cell per lane on average (f = 1/lanes) leaves ≈ e⁻¹.
	got := UsableFractionExpected(1024, 1.0/1024)
	if math.Abs(got-math.Exp(-1)) > 0.01 {
		t.Errorf("f=1/lanes: %v, want ≈ 1/e", got)
	}
}

// Fig. 11b's headline: even a tiny failed fraction wipes out most of the
// lane, and larger arrays collapse at least as fast.
func TestUsableCollapsesQuickly(t *testing.T) {
	for _, lanes := range []int{256, 512, 1024} {
		// 1% of cells failed.
		u := UsableFractionExpected(lanes, 0.01)
		if u > 0.08 {
			t.Errorf("lanes=%d: 1%% failures leave %.3f usable, expected collapse", lanes, u)
		}
	}
	if UsableFractionExpected(1024, 0.005) >= UsableFractionExpected(256, 0.005) {
		t.Error("wider arrays should lose at least as much capacity")
	}
}

// The exact expectation against the failure-placement sampler, over
// arrays, lane sets and failure counts that include no failures (exactly
// 1) and more than N − g failures, where every group of g cells must hold
// one (exactly 0).
func TestSimulateUsableMatchesClosedForm(t *testing.T) {
	cases := []struct{ rows, lanes, sets, failed int }{
		{64, 64, 1, 0},
		{64, 64, 1, 4},
		{64, 64, 1, 41},
		{64, 64, 4, 120},
		{32, 16, 2, 200},
		{16, 8, 1, 40},
		{256, 256, 4, 256},
		{8, 8, 1, 57},  // 57 > 64 − 8
		{8, 8, 2, 61},  // 61 > 64 − 4
		{8, 8, 8, 64},  // every cell failed
		{8, 8, 8, 63},  // one cell left: 1 of 64 groups survives
		{4, 64, 64, 1}, // one failure poisons 1 of 256 single-cell groups
	}
	for i, c := range cases {
		res, err := LaneSets(c.rows, c.lanes, c.sets, c.failed)
		if err != nil {
			t.Fatal(err)
		}
		mc, se := simulateUsable(c.rows, c.lanes, c.sets, c.failed, 2000, int64(i+1))
		if math.Abs(mc-res.UsableFrac) > 4*se {
			t.Errorf("%+v: sampler %.5f ± %.5f, exact %.5f", c, mc, se, res.UsableFrac)
		}
		if c.failed == 0 && res.UsableFrac != 1 {
			t.Errorf("%+v: no failures leave %v usable, want exactly 1", c, res.UsableFrac)
		}
		if c.failed > c.rows*c.lanes-c.lanes/c.sets && res.UsableFrac != 0 {
			t.Errorf("%+v: %v usable, want exactly 0", c, res.UsableFrac)
		}
	}
}

func TestSimulateUsableEdges(t *testing.T) {
	pts, err := UsableCurve(8, 8, []float64{0, 57.0 / 64, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 0, 0} {
		if got := pts[i].UsableExact; got != want || math.Signbit(got) {
			t.Errorf("f=%v: usable %v, want exactly %v", pts[i].FailedFrac, got, want)
		}
		if mc, _ := simulateUsable(8, 8, 1, int(pts[i].FailedFrac*64), 10, 1); mc != want {
			t.Errorf("f=%v: sampler %v, want exactly %v", pts[i].FailedFrac, mc, want)
		}
	}
	if _, err := UsableCurve(0, 8, []float64{0}); err == nil {
		t.Error("invalid rows accepted")
	}
	for _, f := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := UsableCurve(8, 8, []float64{f}); err == nil {
			t.Errorf("failed fraction %v accepted", f)
		}
	}
}

// Fig. 11b's curve at its three square arrays: non-increasing, and within
// 0.01 of the paper's (1−f)^lanes at every point, as EXPERIMENTS E5
// states.
func TestUsableCurve(t *testing.T) {
	fracs := []float64{0, 0.0005, 0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.05}
	for _, n := range []int{256, 512, 1024} {
		pts, err := UsableCurve(n, n, fracs)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(fracs) {
			t.Fatalf("%d points", len(pts))
		}
		for i, p := range pts {
			if d := math.Abs(p.UsableExact - p.UsableClosed); d > 0.01 {
				t.Errorf("%d lanes, f=%v: exact %.5f, closed form %.5f", n, p.FailedFrac, p.UsableExact, p.UsableClosed)
			}
			if i > 0 && (p.UsableExact > pts[i-1].UsableExact || p.UsableClosed > pts[i-1].UsableClosed) {
				t.Errorf("%d lanes: curve rises at f=%v", n, p.FailedFrac)
			}
		}
	}
}

// §3.3: lane sets raise the usable fraction but pay latency; with a fixed
// failure population, more sets ⇒ more usable rows per set.
func TestLaneSets(t *testing.T) {
	const rows, lanes = 64, 64
	failed := 40
	prev := -1.0
	for _, sets := range []int{1, 2, 4, 8} {
		res, err := LaneSets(rows, lanes, sets, failed)
		if err != nil {
			t.Fatal(err)
		}
		if res.LatencyFactor != sets {
			t.Errorf("sets=%d latency factor %d", sets, res.LatencyFactor)
		}
		if res.UsableFrac <= prev {
			t.Errorf("sets=%d usable %.4f not above the %d-set value %.4f", sets, res.UsableFrac, sets/2, prev)
		}
		prev = res.UsableFrac
		if res.EffectiveCapacity != res.UsableFrac/float64(sets) {
			t.Error("effective capacity inconsistent")
		}
	}
	// One set is Fig. 11b's value.
	one, err := LaneSets(rows, lanes, 1, failed)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := UsableCurve(rows, lanes, []float64{float64(failed) / (rows * lanes)})
	if err != nil {
		t.Fatal(err)
	}
	if one.UsableFrac != pts[0].UsableExact {
		t.Errorf("1-set %v vs Fig. 11b %v", one.UsableFrac, pts[0].UsableExact)
	}
	// C(N−g, k)/C(N, k) is symmetric in g and k: 64 failures against
	// 256-cell groups equal 256 failures against 64-cell groups.
	a, _ := LaneSets(256, 256, 1, 64)
	b, _ := LaneSets(256, 256, 4, 256)
	if a.UsableFrac != b.UsableFrac {
		t.Errorf("64 failures in 1 set %v, 256 in 4 sets %v", a.UsableFrac, b.UsableFrac)
	}
}

func TestLaneSetsErrors(t *testing.T) {
	if _, err := LaneSets(8, 8, 3, 1); err == nil {
		t.Error("indivisible sets accepted")
	}
	if _, err := LaneSets(8, 8, 0, 1); err == nil {
		t.Error("zero sets accepted")
	}
	if _, err := LaneSets(0, 8, 1, 1); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := LaneSets(8, 8, 1, 65); err == nil {
		t.Error("too many failures accepted")
	}
	if _, err := LaneSets(8, 8, 1, -1); err == nil {
		t.Error("negative failures accepted")
	}
}

func TestGracefulLifetimeUniform(t *testing.T) {
	// 4 program rows at rate 10, endurance 100, 6 spares: all four die at
	// t=10, four spares absorb them; at t=20 four more die, two spares
	// left -> one death remapped... sequential processing: deaths are
	// handled one at a time, so the exact schedule is: 4 deaths at t=10
	// (4 spares consumed), 2 deaths at t=20 consume the rest, the next
	// death at t=20 finds none.
	res, err := GracefulLifetime([]float64{10, 10, 10, 10}, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstFailureIters != 10 {
		t.Errorf("first failure = %v, want 10", res.FirstFailureIters)
	}
	if res.UnusableIters != 20 {
		t.Errorf("unusable = %v, want 20", res.UnusableIters)
	}
	if res.Remaps != 6 {
		t.Errorf("remaps = %v, want 6", res.Remaps)
	}
	if res.ExtensionFactor() != 2 {
		t.Errorf("extension = %v, want 2", res.ExtensionFactor())
	}
}

func TestGracefulLifetimeSkewed(t *testing.T) {
	// One hot row (rate 100) and one cold (rate 1), 1 spare, endurance
	// 1000: hot dies at 10, remaps to the spare, dies again at 20.
	res, err := GracefulLifetime([]float64{100, 1}, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstFailureIters != 10 || res.UnusableIters != 20 || res.Remaps != 1 {
		t.Errorf("got %+v, want first 10 unusable 20 remaps 1", res)
	}
	// Zero-rate rows never die even with huge simulated spans.
	res2, err := GracefulLifetime([]float64{5, 0}, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res2.UnusableIters != 10 || res2.Remaps != 0 {
		t.Errorf("zero-rate handling wrong: %+v", res2)
	}
}

func TestGracefulLifetimeNoSpares(t *testing.T) {
	res, err := GracefulLifetime([]float64{2, 4}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Hotter row dies first at 25; no spares ⇒ unusable immediately.
	if res.FirstFailureIters != 25 || res.UnusableIters != 25 {
		t.Errorf("got %+v, want 25/25", res)
	}
	if res.ExtensionFactor() != 1 {
		t.Errorf("extension = %v, want 1", res.ExtensionFactor())
	}
}

func TestGracefulLifetimeErrors(t *testing.T) {
	if _, err := GracefulLifetime([]float64{1}, 1, 0); err == nil {
		t.Error("zero endurance accepted")
	}
	if _, err := GracefulLifetime(nil, 4, 10); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := GracefulLifetime([]float64{1, 1, 1}, 2, 10); err == nil {
		t.Error("oversized program accepted")
	}
	if _, err := GracefulLifetime([]float64{-1}, 2, 10); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := GracefulLifetime([]float64{0, 0}, 4, 10); err == nil {
		t.Error("never-wearing program accepted")
	}
}

func TestFailureTimeline(t *testing.T) {
	// Two cells: one written 10/iter, one 1/iter, accumulated over 10
	// iterations; endurance 100 ⇒ first fails at 10 iters, second at 100.
	counts := []uint64{100, 10}
	got := FailureTimeline(counts, 10, 100, []float64{5, 10, 50, 100, 1000})
	want := []float64{0, 0.5, 0.5, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("timeline[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Never-written cells never fail.
	got = FailureTimeline([]uint64{0, 5}, 1, 1, []float64{1e18})
	if got[0] != 0.5 {
		t.Errorf("unwritten cell failed: %v", got[0])
	}
}
