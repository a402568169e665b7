// Package baseline provides the two comparison points the paper argues
// against:
//
//   - the conventional architecture cost model of §3.1 (memory only moves
//     operands; an ALU computes), which shows PIM's >150× write
//     amplification;
//   - standard-NVM wear leveling — Start-Gap [27] — together with an
//     executable demonstration (Fig. 6 / Algorithm 1) of why address
//     remapping that is safe for plain memory corrupts PIM computation.
package baseline

import (
	"fmt"

	"pimendure/internal/synth"
)

// OpCost is the memory traffic of one operation in cell accesses.
type OpCost struct {
	CellReads  int
	CellWrites int
}

// Add accumulates another cost.
func (c OpCost) Add(o OpCost) OpCost {
	return OpCost{CellReads: c.CellReads + o.CellReads, CellWrites: c.CellWrites + o.CellWrites}
}

// ConvMultiply is a b-bit multiply on a conventional architecture: read two
// b-bit operands, compute in the ALU, write the 2b-bit product (§3.1: "32-
// bit integer multiplication … incurs 64 cell reads and 64 cell writes").
func ConvMultiply(bits int) OpCost {
	return OpCost{CellReads: 2 * bits, CellWrites: 2 * bits}
}

// PIMMultiply is the in-memory multiply cost in the given basis: every
// gate writes its output cell and reads its inputs (§3.1).
func PIMMultiply(basis synth.Basis, bits int) OpCost {
	gates := synth.MultiplierGates(basis, bits)
	// Reads: all gates are two-input except the unary carry gate in each
	// of the b half adders of the NAND basis.
	reads := 2 * gates
	if basis.Name() == "nand" {
		reads -= bits
	}
	return OpCost{CellReads: reads, CellWrites: gates}
}

// WriteAmplification returns how many times more cell writes the
// in-memory multiply performs than the conventional one — the paper's
// ">150×" headline (9824/64 = 153.5 at 32 bits).
func WriteAmplification(basis synth.Basis, bits int) float64 {
	return float64(PIMMultiply(basis, bits).CellWrites) / float64(ConvMultiply(bits).CellWrites)
}

// PerCellAverages reports the §3.1 per-cell averages when cells
// facilitating the computation number `cells` (1024 in the paper's
// example: 0.0625 reads and writes per cell conventionally, versus 19.16
// reads and 9.59 writes per cell for PIM).
func PerCellAverages(c OpCost, cells int) (reads, writes float64, err error) {
	if cells <= 0 {
		return 0, 0, fmt.Errorf("baseline: cells must be positive")
	}
	return float64(c.CellReads) / float64(cells), float64(c.CellWrites) / float64(cells), nil
}
