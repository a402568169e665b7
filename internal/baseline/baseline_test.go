package baseline

import (
	"testing"
	"testing/quick"

	"pimendure/internal/synth"
)

// §3.1's conventional costs: 32-bit multiply = 64 reads + 64 writes.
func TestConvMultiplyPaperNumbers(t *testing.T) {
	c := ConvMultiply(32)
	if c.CellReads != 64 || c.CellWrites != 64 {
		t.Errorf("conv 32-bit mult = %+v, want 64/64", c)
	}
}

// §3.1's PIM costs: 9 824 writes and 19 616 reads.
func TestPIMMultiplyPaperNumbers(t *testing.T) {
	c := PIMMultiply(synth.NAND, 32)
	if c.CellWrites != 9824 {
		t.Errorf("PIM writes = %d, want 9824", c.CellWrites)
	}
	if c.CellReads != 19616 {
		t.Errorf("PIM reads = %d, want 19616", c.CellReads)
	}
}

// §1's headline: "over 150× more write operations".
func TestWriteAmplification(t *testing.T) {
	amp := WriteAmplification(synth.NAND, 32)
	if amp <= 150 || amp >= 160 {
		t.Errorf("write amplification = %v, want ≈153.5", amp)
	}
	if amp != 9824.0/64.0 {
		t.Errorf("amplification = %v, want exactly 9824/64", amp)
	}
}

// §3.1's per-cell averages over 1024 facilitating cells: conventional
// 0.0625 r/w per cell; PIM 19.16 reads and 9.59 writes per cell.
func TestPerCellAverages(t *testing.T) {
	r, w, err := PerCellAverages(ConvMultiply(32), 1024)
	if err != nil || r != 0.0625 || w != 0.0625 {
		t.Errorf("conventional per-cell = %v/%v, want 0.0625", r, w)
	}
	r, w, err = PerCellAverages(PIMMultiply(synth.NAND, 32), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if r < 19.15 || r > 19.17 {
		t.Errorf("PIM reads/cell = %v, want 19.16", r)
	}
	if w < 9.59 || w > 9.60 {
		t.Errorf("PIM writes/cell = %v, want 9.59", w)
	}
	if _, _, err := PerCellAverages(OpCost{}, 0); err == nil {
		t.Error("zero cells accepted")
	}
}

func TestStartGapAddressAlgebra(t *testing.T) {
	s, err := NewStartGap(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Initially identity: gap at 4 (the spare).
	for la := 0; la < 4; la++ {
		if s.PhysAddr(la) != la {
			t.Fatalf("initial PhysAddr(%d) = %d", la, s.PhysAddr(la))
		}
	}
	start, gap := s.Registers()
	if start != 0 || gap != 4 {
		t.Fatalf("registers %d/%d", start, gap)
	}
}

// Start-Gap must always be a partial bijection: distinct logical lines map
// to distinct physical lines, never to the gap.
func TestStartGapBijectionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s, _ := NewStartGap(16, 3)
		for _, o := range ops {
			s.Write(int(o%16), uint64(o))
			seen := map[int]bool{}
			_, gap := s.Registers()
			for la := 0; la < 16; la++ {
				pa := s.PhysAddr(la)
				if pa == gap || pa < 0 || pa > 16 || seen[pa] {
					return false
				}
				seen[pa] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Data must survive arbitrary interleavings of reads, writes and gap
// movement.
func TestStartGapDataIntegrity(t *testing.T) {
	if err := RandomizedCheck(64, 5, 20000, 17); err != nil {
		t.Error(err)
	}
	if err := RandomizedCheck(1, 1, 100, 3); err != nil {
		t.Error(err)
	}
}

// The scheme's purpose: an adversarial single-hot-line workload ends up
// spread over all physical lines, with bounded imbalance.
func TestStartGapLevelsHotLine(t *testing.T) {
	const n, psi = 64, 2
	imb, err := HotLineImbalance(n, psi, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Without leveling the imbalance factor would be n+1 = 65; Start-Gap
	// at ψ=2 must bring it near (1+ψ)·... — empirically ≲ 3.
	if imb > 5 {
		t.Errorf("hot-line imbalance %v, leveling ineffective", imb)
	}
	// Sanity: larger ψ levels more slowly.
	slow, _ := HotLineImbalance(n, 200, 100000)
	if slow <= imb {
		t.Errorf("ψ=200 imbalance %v should exceed ψ=2's %v", slow, imb)
	}
}

func TestStartGapConstructorErrors(t *testing.T) {
	if _, err := NewStartGap(0, 1); err == nil {
		t.Error("zero lines accepted")
	}
	if _, err := NewStartGap(4, 0); err == nil {
		t.Error("zero interval accepted")
	}
	s, _ := NewStartGap(4, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range address should panic")
		}
	}()
	s.PhysAddr(4)
}

// Fig. 6: the same remap that is invisible to a CPU corrupts PIM.
func TestMisalignedANDDemo(t *testing.T) {
	r := MisalignedANDDemo(5, 6, 3)
	if r.Want != 5&6 {
		t.Fatal("reference broken")
	}
	if r.CPU != r.Want {
		t.Errorf("CPU result %d should be correct (%d)", r.CPU, r.Want)
	}
	if r.PIMAware != r.Want {
		t.Errorf("alignment-preserving remap result %d should be correct (%d)", r.PIMAware, r.Want)
	}
	if r.PIM == r.Want {
		t.Errorf("misaligned PIM result for (5,6,shift 3) should be wrong, got correct %d", r.PIM)
	}
	// Zero shift is harmless.
	r0 := MisalignedANDDemo(5, 6, 0)
	if r0.PIM != r0.Want {
		t.Error("zero shift should not corrupt")
	}
}

// Property: the CPU and the PIM-aware remap are always correct; the
// misaligned PIM result is wrong for most operands at any nonzero shift.
func TestMisalignmentProperty(t *testing.T) {
	f := func(x, y uint8, shift uint8) bool {
		r := MisalignedANDDemo(x, y, int(shift))
		return r.CPU == r.Want && r.PIMAware == r.Want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if rate := CorruptionRate(0); rate != 0 {
		t.Errorf("shift 0 corruption rate %v", rate)
	}
	if rate := CorruptionRate(1); rate < 0.5 {
		t.Errorf("shift 1 corruption rate %v, expected majority corrupted", rate)
	}
}
