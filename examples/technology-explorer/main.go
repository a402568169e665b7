// Technology explorer: the device-level view of the paper's conclusion.
// For each NVM technology (§2.1), sweep its cited endurance range and
// report how long a PIM array doing continuous multiplication survives —
// then show how quickly failed cells make lanes unusable (Fig. 11b) and
// what lane-set partitioning recovers (§3.3).
//
//	go run ./examples/technology-explorer
package main

import (
	"fmt"
	"log"

	"pimendure/pim"
)

func main() {
	log.SetFlags(0)

	opt := pim.Options{Lanes: 256, Rows: 1024, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewParallelMult(opt, 32)
	if err != nil {
		log.Fatal(err)
	}
	rc := pim.RunConfig{Iterations: 5000, RecompileEvery: 100, Seed: 5}
	balanced := pim.Strategy{Within: pim.Random, Between: pim.Random, Hw: true}

	fmt.Println("continuous 32-bit multiplication,", opt.Lanes, "lanes, best-practice balancing (RaxRa+Hw)")
	fmt.Printf("\n%-16s %-24s %s\n", "technology", "endurance (min..max)", "lifetime at min .. max")
	for _, tech := range pim.Technologies() {
		lo, err := pim.Run(bench, opt, rc, balanced, tech.WithEndurance(tech.EnduranceMin))
		if err != nil {
			log.Fatal(err)
		}
		hi, err := pim.Run(bench, opt, rc, balanced, tech.WithEndurance(tech.EnduranceMax))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %-8.0e .. %-12.0e %s .. %s\n",
			tech.Name, tech.EnduranceMin, tech.EnduranceMax,
			humanDays(lo.Lifetime.Days()), humanDays(hi.Lifetime.Days()))
	}

	// Fig. 11b: what failure does to capacity.
	fmt.Println("\nusable fraction of each lane as cells fail (closed form, by lane width):")
	fmt.Printf("%-14s %8s %8s %8s\n", "failed cells", "256", "512", "1024")
	for _, f := range []float64{0.0005, 0.001, 0.005, 0.01} {
		fmt.Printf("%13.2f%% %8.3f %8.3f %8.3f\n", f*100,
			pim.UsableFraction(256, f), pim.UsableFraction(512, f), pim.UsableFraction(1024, f))
	}

	pts, err := pim.FaultCurve(256, 256, []float64{0.002})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexact at 0.2%% failed (256×256 array, 131 failed cells): %.3f usable vs %.3f closed form\n",
		pts[0].UsableExact, pts[0].UsableClosed)
	fmt.Println("\neven a fraction of a percent of failed cells erases most of a lane —")
	fmt.Println("the paper's case for device-level endurance progress over architectural patches.")
}

func humanDays(d float64) string {
	switch {
	case d < 1.0/24/30:
		return fmt.Sprintf("%.1f s", d*86400)
	case d < 1.0/12:
		return fmt.Sprintf("%.1f min", d*1440)
	case d < 2:
		return fmt.Sprintf("%.1f h", d*24)
	case d < 730:
		return fmt.Sprintf("%.1f days", d)
	default:
		return fmt.Sprintf("%.1f years", d/365)
	}
}
