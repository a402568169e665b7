package mapping

import "fmt"

// HwRenamer is the paper's hardware load-balancing scheme (§3.2 "(Hardware)
// Load Balancing Within Lanes"): a register-renaming-style redirector with
// one spare bit address per lane. A lane with N physical bits exposes N−1
// logical bit addresses plus 1 free address. On every qualifying write the
// hardware redirects the write to the free physical address, marks it as
// the written logical address, and recycles the previous physical address
// as the new free one.
//
// Renaming state is shared by all lanes — the redirect applies uniformly —
// which is why the evaluation applies it only on operations that use all
// lanes (§4: "re-mapping on every gate that uses all lanes"): renaming on a
// partial mask would desynchronize the untouched lanes.
type HwRenamer struct {
	a2p  []int32 // architectural row -> physical row
	free int32
	rows int
}

// NewHwRenamer returns a renamer for a lane with rows physical bit
// addresses: rows−1 architectural addresses (0..rows−2) and one spare.
func NewHwRenamer(rows int) *HwRenamer {
	if rows < 2 {
		panic("mapping: HwRenamer needs at least 2 rows")
	}
	h := &HwRenamer{a2p: make([]int32, rows-1), rows: rows}
	h.Reset()
	return h
}

// Reset restores the identity mapping with the top physical row spare.
// Called at recompile boundaries, when software re-mapping re-baselines
// the layout.
func (h *HwRenamer) Reset() {
	for i := range h.a2p {
		h.a2p[i] = int32(i)
	}
	h.free = int32(h.rows - 1)
}

// ArchRows returns the number of architectural addresses (rows − 1).
func (h *HwRenamer) ArchRows() int { return len(h.a2p) }

// Lookup returns the physical row currently holding an architectural row.
func (h *HwRenamer) Lookup(arch int) int {
	return int(h.a2p[arch])
}

// RenameOnWrite redirects a write of architectural row arch to the free
// physical row, swaps the mapping, and returns the physical row actually
// written.
func (h *HwRenamer) RenameOnWrite(arch int) int {
	phys := h.free
	h.free = h.a2p[arch]
	h.a2p[arch] = phys
	return int(phys)
}

// FreeRow returns the current spare physical row.
func (h *HwRenamer) FreeRow() int { return int(h.free) }

// Validate checks that the mapping plus the free row form a bijection over
// the physical rows.
func (h *HwRenamer) Validate() error {
	seen := make([]bool, h.rows)
	mark := func(p int32) error {
		if p < 0 || int(p) >= h.rows {
			return fmt.Errorf("mapping: physical row %d out of range", p)
		}
		if seen[p] {
			return fmt.Errorf("mapping: physical row %d mapped twice", p)
		}
		seen[p] = true
		return nil
	}
	for _, p := range h.a2p {
		if err := mark(p); err != nil {
			return err
		}
	}
	return mark(h.free)
}
