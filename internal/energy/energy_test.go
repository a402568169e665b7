package energy

import (
	"math"
	"testing"

	"pimendure/internal/program"
	"pimendure/internal/synth"
)

func mult32Trace(t *testing.T) *program.Trace {
	t.Helper()
	bld := program.NewBuilder(1, 1023)
	x := bld.AllocN(32)
	y := bld.AllocN(32)
	synth.Dadda(bld, synth.NAND, x, y)
	return bld.Trace()
}

func TestModelsValid(t *testing.T) {
	for _, m := range Models() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if err := (Model{Name: "bad"}).Validate(); err == nil {
		t.Error("zero model accepted")
	}
	// Write dominates read in every NVM technology.
	for _, m := range Models() {
		if m.WriteJ <= m.ReadJ {
			t.Errorf("%s: write energy should dominate", m.Name)
		}
	}
	// PCM writes are the most expensive, MRAM the cheapest.
	if !(PCM().WriteJ > RRAM().WriteJ && RRAM().WriteJ > MRAM().WriteJ) {
		t.Error("technology write-energy ordering wrong")
	}
}

// One 32-bit in-memory multiply on a single lane: 9 824 writes and 19 616
// reads priced exactly.
func TestOfTraceMatchesCounts(t *testing.T) {
	tr := mult32Trace(t)
	m := MRAM()
	b, err := OfTrace(tr, false, m)
	if err != nil {
		t.Fatal(err)
	}
	wantW := 9824 * m.WriteJ
	wantR := 19616 * m.ReadJ
	if math.Abs(b.WriteJ-wantW) > 1e-18 || math.Abs(b.ReadJ-wantR) > 1e-18 {
		t.Errorf("breakdown %+v, want writes %g reads %g", b, wantW, wantR)
	}
	// Preset doubles write energy exactly.
	bp, err := OfTrace(tr, true, m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bp.WriteJ-2*wantW) > 1e-18 {
		t.Errorf("preset writes %g, want %g", bp.WriteJ, 2*wantW)
	}
	if b.Total() != b.ReadJ+b.WriteJ {
		t.Error("total inconsistent")
	}
	if _, err := OfTrace(tr, false, Model{Name: "bad"}); err == nil {
		t.Error("invalid model accepted")
	}
}

// The PIM-vs-conventional energy comparison the paper's motivation rests
// on: with fJ-class MTJ writes, avoiding off-chip movement keeps an MRAM
// PIM multiply in the same energy class as a CPU multiply despite its
// 150× write amplification — while pJ-class PCM writes lose that parity.
func TestPIMVersusConventional(t *testing.T) {
	tr := mult32Trace(t)
	conv := DefaultConv().MultiplyJ(32)
	mram, _ := OfTrace(tr, true, MRAM())
	ratio := mram.Total() / conv
	if ratio < 0.05 || ratio > 20 {
		t.Errorf("MRAM PIM/conventional ratio %.2f outside the same energy class", ratio)
	}
	pcm, _ := OfTrace(tr, true, PCM())
	if pcm.Total() < 10*mram.Total() {
		t.Error("PCM writes should cost well over 10x MRAM")
	}
	if pcm.Total() < 10*conv {
		t.Error("PCM-class writes should lose energy parity with the CPU")
	}
}

func TestEnergyDelayProduct(t *testing.T) {
	b := Breakdown{ReadJ: 1e-9, WriteJ: 3e-9}
	got := EnergyDelayProduct(b, 1000, 3e-9)
	want := 4e-9 * 1000 * 3e-9
	if math.Abs(got-want) > 1e-24 {
		t.Errorf("EDP = %g, want %g", got, want)
	}
}

func TestConvMultiplyJ(t *testing.T) {
	c := ConvModel{BitMoveJ: 1e-12, OpJ: 10e-12}
	// 128 bits moved + ALU.
	if got, want := c.MultiplyJ(32), 128e-12+10e-12; math.Abs(got-want) > 1e-18 {
		t.Errorf("conv multiply = %g, want %g", got, want)
	}
}
