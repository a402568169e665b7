// Package energy models the energy cost of PIM execution. The paper's
// motivation for nonvolatile PIM is extreme energy efficiency (§1, §2.2);
// its evaluation accounts for "architecture specific latency and energy
// efficiency overheads" (§4), and Table 2's shuffle overhead "corresponds
// directly to extra latency and energy" because all gates are sequential.
// This package makes those statements computable: per-cell read/write
// energies per technology, trace-level totals, the conventional
// (data-movement) comparison, and energy-to-failure.
package energy

import (
	"fmt"

	"pimendure/internal/program"
)

// Model carries per-access energies in joules.
type Model struct {
	// Name labels the model in reports.
	Name string
	// ReadJ is the energy of sensing one cell.
	ReadJ float64
	// WriteJ is the energy of programming one cell (the dominant cost in
	// every NVM technology).
	WriteJ float64
}

// Validate reports malformed parameters.
func (m Model) Validate() error {
	if m.ReadJ <= 0 || m.WriteJ <= 0 {
		return fmt.Errorf("energy: non-positive access energies in %q", m.Name)
	}
	return nil
}

// Representative per-cell access energies from the PIM literature the
// paper builds on (orders of magnitude only — sub-pJ STT-MTJ switching,
// pJ-class RRAM/PCM programming; all models are user-overridable).
func MRAM() Model { return Model{Name: "MRAM", ReadJ: 10e-15, WriteJ: 100e-15} }
func RRAM() Model { return Model{Name: "RRAM", ReadJ: 25e-15, WriteJ: 1e-12} }
func PCM() Model  { return Model{Name: "PCM", ReadJ: 50e-15, WriteJ: 5e-12} }

// Models lists the built-in device energy models.
func Models() []Model { return []Model{MRAM(), RRAM(), PCM()} }

// Breakdown is the energy of one trace execution split by access type.
type Breakdown struct {
	ReadJ  float64
	WriteJ float64
}

// Total returns the summed energy.
func (b Breakdown) Total() float64 { return b.ReadJ + b.WriteJ }

// OfTrace integrates the model over one execution of a trace: every cell
// read and write of every op, across all active lanes, including the
// CRAM output-preset writes when presetOutputs is set.
func OfTrace(tr *program.Trace, presetOutputs bool, m Model) (Breakdown, error) {
	if err := m.Validate(); err != nil {
		return Breakdown{}, err
	}
	return Breakdown{
		ReadJ:  float64(tr.CellReads()) * m.ReadJ,
		WriteJ: float64(tr.CellWrites(presetOutputs)) * m.WriteJ,
	}, nil
}

// ConvModel is the conventional-architecture energy reference: operands
// cross a memory bus to a CPU, so the dominant terms are per-bit data
// movement and the core's per-operation energy (pipeline, register file,
// caches — far more than the bare ALU).
type ConvModel struct {
	// BitMoveJ is the energy to move one bit between memory and the CPU
	// (off-chip DRAM-class movement is ~1–10 pJ/bit).
	BitMoveJ float64
	// OpJ is the whole-core energy of executing one arithmetic
	// operation (hundreds of pJ on a server-class core).
	OpJ float64
}

// DefaultConv returns a representative conventional reference
// (10 pJ/bit off-chip movement, 500 pJ per core operation).
func DefaultConv() ConvModel { return ConvModel{BitMoveJ: 10e-12, OpJ: 500e-12} }

// MultiplyJ returns the conventional energy of one b-bit multiply: 2b bits
// in, 2b bits out, one core op (§3.1's traffic model).
func (c ConvModel) MultiplyJ(bits int) float64 {
	return float64(4*bits)*c.BitMoveJ + c.OpJ
}

// EnergyDelayProduct combines a trace's energy with its latency.
func EnergyDelayProduct(b Breakdown, steps int, stepSeconds float64) float64 {
	return b.Total() * float64(steps) * stepSeconds
}
