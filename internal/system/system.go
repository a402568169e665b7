// Package system lifts the single-array endurance analysis to a whole PIM
// accelerator. The paper frames both deployments (§4): an embedded device
// "can only function as long as the PIM arrays persist", and a server
// accelerator "must be replaced once a sufficient number of PIM arrays
// fail"; §2.2 adds that at scale the limiting factors are the number of
// arrays and inter-array communication; §7 notes that low-duty-cycle
// embedded designs live proportionally longer.
//
// The model here: a chip carries identical arrays running the same kernel
// in parallel. Each array's first-cell-failure time comes from the
// single-array analysis (package lifetime); array-to-array variation is
// lognormal. The chip is serviceable while at least a minimum fraction of
// arrays survive.
//
// The package also holds the multi-bank scheduler (banks.go): Route
// assigns a workload's iteration blocks to the banks of an Organization.
// It simulates nothing; pim.BankStripe runs each touched bank on pim's
// run path.
package system

import (
	"fmt"
	"math/rand"
	"sort"

	"pimendure/internal/stats"
)

// Config describes the accelerator.
type Config struct {
	// Arrays is the number of PIM arrays on the chip.
	Arrays int
	// SpareFraction is the fraction of arrays that may fail before the
	// chip must be replaced (0 = first array failure kills the chip).
	SpareFraction float64
	// DutyCycle is the fraction of wall-clock time spent computing
	// (1 = the paper's continuous operation; embedded designs are far
	// lower, §7).
	DutyCycle float64
	// Sigma is the lognormal shape of array-to-array first-failure
	// variation (process variation, workload skew); 0 = identical
	// arrays.
	Sigma float64
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if c.Arrays <= 0 {
		return fmt.Errorf("system: need at least one array, got %d", c.Arrays)
	}
	if c.SpareFraction < 0 || c.SpareFraction >= 1 {
		return fmt.Errorf("system: spare fraction %v outside [0,1)", c.SpareFraction)
	}
	if c.DutyCycle <= 0 || c.DutyCycle > 1 {
		return fmt.Errorf("system: duty cycle %v outside (0,1]", c.DutyCycle)
	}
	if c.Sigma < 0 {
		return fmt.Errorf("system: negative sigma %v", c.Sigma)
	}
	return nil
}

// Estimate is the chip-level replacement-time distribution.
type Estimate struct {
	Trials int
	// MeanSeconds is the expected wall-clock time until the chip drops
	// below its minimum surviving-array count.
	MeanSeconds float64
	// P05 and P95 bound the central 90%.
	P05, P95 float64
	// ArraysTolerated is how many array failures the chip absorbs before
	// replacement.
	ArraysTolerated int
}

// ChipLifetime Monte-Carlo estimates when the chip must be replaced,
// given the median first-failure time of a single array under continuous
// operation (from lifetime.Model.Estimate).
func ChipLifetime(arrayMedianSeconds float64, cfg Config, trials int, seed int64) (Estimate, error) {
	if err := cfg.Validate(); err != nil {
		return Estimate{}, err
	}
	if arrayMedianSeconds <= 0 {
		return Estimate{}, fmt.Errorf("system: non-positive array lifetime %v", arrayMedianSeconds)
	}
	if trials <= 0 {
		return Estimate{}, fmt.Errorf("system: trials must be positive")
	}
	tolerated := int(cfg.SpareFraction * float64(cfg.Arrays))
	// The chip dies at the (tolerated+1)-th array failure.
	kth := tolerated // 0-indexed order statistic
	l := stats.LognormalMedian(arrayMedianSeconds, cfg.Sigma)
	rng := rand.New(rand.NewSource(seed))

	samples := make([]float64, trials)
	lives := make([]float64, cfg.Arrays)
	for t := range samples {
		l.Fill(lives, rng)
		sort.Float64s(lives)
		samples[t] = lives[kth] / cfg.DutyCycle
	}
	sort.Float64s(samples)
	var sum float64
	for _, s := range samples {
		sum += s
	}
	q := func(p float64) float64 {
		i := int(p * float64(trials))
		if i >= trials {
			i = trials - 1
		}
		return samples[i]
	}
	return Estimate{
		Trials:          trials,
		MeanSeconds:     sum / float64(trials),
		P05:             q(0.05),
		P95:             q(0.95),
		ArraysTolerated: tolerated,
	}, nil
}
