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
// arrays survive, so its replacement time is an order statistic of the
// array lives, which ChipLifetime computes exactly.
//
// The package also holds the multi-bank scheduler (banks.go): Route
// assigns a workload's iteration blocks to the banks of an Organization.
// It simulates nothing; pim.BankStripe runs each touched bank on pim's
// run path.
package system

import (
	"fmt"

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
	// MeanSeconds is the expected wall-clock time until the chip drops
	// below its minimum surviving-array count.
	MeanSeconds float64
	// P05 and P95 bound the central 90%.
	P05, P95 float64
	// ArraysTolerated is how many array failures the chip absorbs before
	// replacement.
	ArraysTolerated int
}

// ChipLifetime returns when the chip must be replaced, given the median
// first-failure time of a single array under continuous operation (from
// lifetime.Model.Estimate). The chip dies at the (k+1)-th of cfg.Arrays
// lognormal array failures, k = ArraysTolerated, so its compute time is
// that order statistic (stats.Lognormal.OrderMean and OrderQuantile),
// and its wall-clock time that divided by the duty cycle. Every figure
// is exact: nothing is sampled.
func ChipLifetime(arrayMedianSeconds float64, cfg Config) (Estimate, error) {
	if err := cfg.Validate(); err != nil {
		return Estimate{}, err
	}
	if arrayMedianSeconds <= 0 {
		return Estimate{}, fmt.Errorf("system: non-positive array lifetime %v", arrayMedianSeconds)
	}
	est := Estimate{ArraysTolerated: int(cfg.SpareFraction * float64(cfg.Arrays))}
	if cfg.Sigma == 0 {
		// Identical arrays all fail at the median; dividing it directly
		// skips the exp(ln m) round trip of the lognormal.
		t := arrayMedianSeconds / cfg.DutyCycle
		est.MeanSeconds, est.P05, est.P95 = t, t, t
		return est, nil
	}
	l := stats.LognormalMedian(arrayMedianSeconds, cfg.Sigma)
	n, k := cfg.Arrays, est.ArraysTolerated
	est.MeanSeconds = l.OrderMean(n, k) / cfg.DutyCycle
	est.P05 = l.OrderQuantile(0.05, n, k) / cfg.DutyCycle
	est.P95 = l.OrderQuantile(0.95, n, k) / cfg.DutyCycle
	return est, nil
}
