package system

import (
	"math"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := Config{Arrays: 16, SpareFraction: 0.25, DutyCycle: 1, Sigma: 0.3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Arrays: 0, DutyCycle: 1},
		{Arrays: 4, SpareFraction: -0.1, DutyCycle: 1},
		{Arrays: 4, SpareFraction: 1, DutyCycle: 1},
		{Arrays: 4, DutyCycle: 0},
		{Arrays: 4, DutyCycle: 1.5},
		{Arrays: 4, DutyCycle: 1, Sigma: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// With no variation and no spares, the chip dies exactly when the arrays
// do, stretched by the duty cycle.
func TestChipLifetimeDeterministic(t *testing.T) {
	cfg := Config{Arrays: 64, SpareFraction: 0, DutyCycle: 1, Sigma: 0}
	est, err := ChipLifetime(1e6, cfg, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.MeanSeconds-1e6) > 1 {
		t.Errorf("mean = %g, want 1e6", est.MeanSeconds)
	}
	if est.ArraysTolerated != 0 {
		t.Errorf("tolerated = %d, want 0", est.ArraysTolerated)
	}
	// Duty cycle 10% ⇒ 10× wall-clock life (§7's embedded argument).
	low := cfg
	low.DutyCycle = 0.1
	est2, err := ChipLifetime(1e6, low, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est2.MeanSeconds-1e7) > 10 {
		t.Errorf("duty-cycled mean = %g, want 1e7", est2.MeanSeconds)
	}
}

// Spares extend chip life under variation: tolerating 25% failures moves
// the replacement time from the minimum order statistic to the 25th
// percentile one.
func TestSparesExtendLifetime(t *testing.T) {
	base := Config{Arrays: 64, SpareFraction: 0, DutyCycle: 1, Sigma: 0.5}
	spared := base
	spared.SpareFraction = 0.25
	noSpare, err := ChipLifetime(1e6, base, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	withSpare, err := ChipLifetime(1e6, spared, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if withSpare.MeanSeconds <= noSpare.MeanSeconds {
		t.Errorf("spares should extend life: %g vs %g", withSpare.MeanSeconds, noSpare.MeanSeconds)
	}
	if withSpare.ArraysTolerated != 16 {
		t.Errorf("tolerated = %d, want 16", withSpare.ArraysTolerated)
	}
	// With variation, the first of 64 arrays dies well before the median.
	if noSpare.MeanSeconds >= 1e6 {
		t.Errorf("first-failure of 64 varying arrays (%g) should undercut the median 1e6", noSpare.MeanSeconds)
	}
	if !(noSpare.P05 <= noSpare.MeanSeconds && noSpare.MeanSeconds <= noSpare.P95) {
		t.Error("quantiles disordered")
	}
}

// More arrays with zero spare ⇒ earlier first failure (minimum of more
// draws).
func TestMoreArraysFailSooner(t *testing.T) {
	small := Config{Arrays: 8, SpareFraction: 0, DutyCycle: 1, Sigma: 0.5}
	big := Config{Arrays: 512, SpareFraction: 0, DutyCycle: 1, Sigma: 0.5}
	s, err := ChipLifetime(1e6, small, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChipLifetime(1e6, big, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.MeanSeconds >= s.MeanSeconds {
		t.Errorf("512 arrays (%g) should fail sooner than 8 (%g)", b.MeanSeconds, s.MeanSeconds)
	}
}

func TestChipLifetimeErrors(t *testing.T) {
	cfg := Config{Arrays: 4, DutyCycle: 1}
	if _, err := ChipLifetime(0, cfg, 10, 1); err == nil {
		t.Error("zero array lifetime accepted")
	}
	if _, err := ChipLifetime(1, cfg, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := ChipLifetime(1, Config{}, 10, 1); err == nil {
		t.Error("invalid config accepted")
	}
}
