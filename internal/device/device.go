// Package device models the nonvolatile memory technologies the paper
// surveys (§2.1): their write endurance ranges, switching times, and
// projected improvements. The endurance study only needs two scalars per
// technology — writes-to-failure per cell and seconds per array operation —
// so the models are deliberately parametric; the cited ranges are encoded
// so experiments can sweep them.
package device

import (
	"fmt"
	"strings"
)

// Technology describes an NVM cell technology for endurance analysis.
type Technology struct {
	// Name identifies the technology ("MRAM", "RRAM", "PCM", …).
	Name string
	// EnduranceMin and EnduranceMax bound the writes-to-failure per cell
	// reported in the paper's cited literature.
	EnduranceMin, EnduranceMax float64
	// Endurance is the nominal value the paper's analysis assumes.
	Endurance float64
	// SwitchSeconds is the per-operation device time (the paper assumes
	// 3 ns per read, write, or gate [29, 32]).
	SwitchSeconds float64
	// Notes carries the provenance from §2.1.
	Notes string
}

// String formats the technology compactly.
func (t Technology) String() string {
	return fmt.Sprintf("%s (endurance %.0e, %.1f ns/op)", t.Name, t.Endurance, t.SwitchSeconds*1e9)
}

// Validate reports malformed parameters.
func (t Technology) Validate() error {
	if t.Endurance <= 0 || t.SwitchSeconds <= 0 {
		return fmt.Errorf("device: %s has non-positive endurance or switch time", t.Name)
	}
	if t.EnduranceMin > t.EnduranceMax {
		return fmt.Errorf("device: %s endurance range inverted", t.Name)
	}
	return nil
}

// DefaultSwitchSeconds is the paper's 3 ns per operation assumption
// ([29, 32], §3.1 and §4).
const DefaultSwitchSeconds = 3e-9

// MRAM returns the magnetic-tunnel-junction model: current MTJs switch up
// to 10¹² times before permanent failure [23, 34]; writes move no atoms,
// so endurance is expected to keep improving [18].
func MRAM() Technology {
	return Technology{
		Name:          "MRAM",
		EnduranceMin:  1e11,
		EnduranceMax:  1e12,
		Endurance:     1e12,
		SwitchSeconds: DefaultSwitchSeconds,
		Notes:         "MTJ; 10^12 writes [23,34]; no moving atoms, improvement expected [18]",
	}
}

// RRAM returns the resistive-RAM model: roughly 10⁸–10⁹ writes before
// failure [18, 35, 46].
func RRAM() Technology {
	return Technology{
		Name:          "RRAM",
		EnduranceMin:  1e8,
		EnduranceMax:  1e9,
		Endurance:     1e8,
		SwitchSeconds: DefaultSwitchSeconds,
		Notes:         "metal-insulator-metal filament; 10^8-10^9 writes [18,35,46]",
	}
}

// PCM returns the phase-change-memory model: around 10⁶–10⁹ writes before
// failure [18, 19].
func PCM() Technology {
	return Technology{
		Name:          "PCM",
		EnduranceMin:  1e6,
		EnduranceMax:  1e9,
		Endurance:     1e7,
		SwitchSeconds: DefaultSwitchSeconds,
		Notes:         "amorphous/crystalline channel; 10^6-10^9 writes [18,19]",
	}
}

// ProjectedMRAM returns a forward-looking MTJ model: numerous works
// predict orders-of-magnitude endurance improvements [18, 37]; the paper's
// conclusion calls for exactly this device-level progress.
func ProjectedMRAM() Technology {
	return Technology{
		Name:          "MRAM-projected",
		EnduranceMin:  1e13,
		EnduranceMax:  1e15,
		Endurance:     1e14,
		SwitchSeconds: DefaultSwitchSeconds,
		Notes:         "projected 100x endurance improvement [18,37]",
	}
}

// Technologies lists the models in a stable presentation order.
func Technologies() []Technology {
	return []Technology{MRAM(), RRAM(), PCM(), ProjectedMRAM()}
}

// Lookup returns the technology of Technologies whose name matches,
// case-insensitively ("rram" finds RRAM). Its error lists the valid names.
func Lookup(name string) (Technology, error) {
	techs := Technologies()
	for _, t := range techs {
		if strings.EqualFold(t.Name, name) {
			return t, nil
		}
	}
	names := make([]string, len(techs))
	for i, t := range techs {
		names[i] = t.Name
	}
	return Technology{}, fmt.Errorf("unknown technology %q (want %s)", name, strings.Join(names, ", "))
}

// WithEndurance returns a copy of t with the nominal endurance replaced
// (for sweeps across a technology's cited range).
func (t Technology) WithEndurance(e float64) Technology {
	t.Endurance = e
	return t
}
