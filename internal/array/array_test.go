package array_test

import (
	"math/rand"
	"testing"

	"pimendure/internal/array"
	"pimendure/internal/gates"
	"pimendure/internal/mapping"
	"pimendure/internal/program"
	"pimendure/internal/synth"
)

func TestConfigValidate(t *testing.T) {
	if err := (array.Config{BitsPerLane: 4, Lanes: 4}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (array.Config{BitsPerLane: 0, Lanes: 4}).Validate(); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestPeekPokeDontCount(t *testing.T) {
	a := array.New(array.Config{BitsPerLane: 4, Lanes: 4})
	a.Poke(1, 2, true)
	if !a.Peek(1, 2) {
		t.Error("poke lost")
	}
	if a.TotalWrites() != 0 || a.TotalReads() != 0 {
		t.Error("peek/poke counted as accesses")
	}
}

func TestOutOfRangeCellPanics(t *testing.T) {
	a := array.New(array.Config{BitsPerLane: 4, Lanes: 4})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.Peek(4, 0)
}

// A one-gate trace checks the execution counters precisely.
func TestGateExecutionCounts(t *testing.T) {
	for _, preset := range []bool{false, true} {
		bld := program.NewBuilder(3, 8)
		in, _ := bld.WriteVector(2)
		out := bld.Gate(gates.NAND, in[0], in[1])
		bld.Read(out)
		tr := bld.Trace()

		a := array.New(array.Config{BitsPerLane: 8, Lanes: 3, PresetOutputs: preset})
		r, err := array.NewRunner(a, tr, array.IdentityMapper(8, 3), func(slot, lane int) bool {
			return slot == 0 // in0=1, in1=0 -> NAND = 1
		})
		if err != nil {
			t.Fatal(err)
		}
		r.RunIteration()
		for l := 0; l < 3; l++ {
			if !r.Out(0, l) {
				t.Errorf("lane %d: NAND(1,0) should be 1", l)
			}
		}
		// Writes: 2 operand writes + gate (1 or 2 with preset), per lane.
		wantGateWrites := uint64(1)
		if preset {
			wantGateWrites = 2
		}
		if got := a.Writes(2, 0); got != wantGateWrites {
			t.Errorf("preset=%v: output cell writes = %d, want %d", preset, got, wantGateWrites)
		}
		if got := a.Writes(0, 1); got != 1 {
			t.Errorf("operand cell writes = %d, want 1", got)
		}
		// Reads: each input read once by the gate; output read once.
		if got := a.Reads(0, 0); got != 1 {
			t.Errorf("input reads = %d, want 1", got)
		}
		if got := a.Reads(2, 2); got != 1 {
			t.Errorf("output reads = %d, want 1", got)
		}
		wantTotal := uint64(3 * (2 + int(wantGateWrites)))
		if got := a.TotalWrites(); got != wantTotal {
			t.Errorf("total writes = %d, want %d", got, wantTotal)
		}
	}
}

func TestMoveBetweenLanes(t *testing.T) {
	bld := program.NewBuilder(4, 8)
	src := bld.Alloc()
	bld.Write(src) // all lanes
	dst := bld.Alloc()
	bld.SetMask(program.RangeMask(4, 0, 2))
	bld.Move(src, dst, 2)
	bld.Read(dst)
	tr := bld.Trace()

	a := array.New(array.Config{BitsPerLane: 8, Lanes: 4})
	r, err := array.NewRunner(a, tr, array.IdentityMapper(8, 4), func(slot, lane int) bool {
		return lane >= 2 // only upper lanes hold 1
	})
	if err != nil {
		t.Fatal(err)
	}
	r.RunIteration()
	for l := 0; l < 2; l++ {
		if !r.Out(0, l) {
			t.Errorf("lane %d should have received 1 from lane %d", l, l+2)
		}
	}
	// Source cells read in lanes 2,3; destination written in lanes 0,1.
	if a.Reads(0, 2) != 1 || a.Reads(0, 3) != 1 {
		t.Error("move did not read shifted source lanes")
	}
	if a.Writes(1, 0) != 1 || a.Writes(1, 1) != 1 {
		t.Error("move did not write destination lanes")
	}
	if a.Writes(1, 2) != 0 {
		t.Error("move wrote outside destination mask")
	}
}

func TestRunnerValidation(t *testing.T) {
	bld := program.NewBuilder(4, 8)
	v, _ := bld.WriteVector(4)
	_ = v
	tr := bld.Trace()
	a := array.New(array.Config{BitsPerLane: 8, Lanes: 4})

	cases := []array.Mapper{
		{Within: mapping.Identity(7), Between: mapping.Identity(4)},                               // wrong rows
		{Within: mapping.Identity(8), Between: mapping.Identity(5)},                               // wrong lanes
		{Within: mapping.Identity(8), Between: mapping.Identity(4), Hw: mapping.NewHwRenamer(8)},  // perm must shrink to 7 with Hw
		{Within: mapping.Identity(7), Between: mapping.Identity(4), Hw: mapping.NewHwRenamer(16)}, // Hw wrong size
	}
	for i, m := range cases {
		if _, err := array.NewRunner(a, tr, m, nil); err == nil {
			t.Errorf("case %d: invalid mapper accepted", i)
		}
	}
	// Trace wider than arch space.
	bld2 := program.NewBuilder(4, 8)
	bld2.WriteVector(8)
	tr2 := bld2.Trace()
	m := array.Mapper{Within: mapping.Identity(7), Between: mapping.Identity(4), Hw: mapping.NewHwRenamer(8)}
	if _, err := array.NewRunner(a, tr2, m, nil); err == nil {
		t.Error("trace exceeding arch bits accepted with Hw")
	}
	// Lanes mismatch between trace and array.
	bld3 := program.NewBuilder(2, 8)
	bld3.WriteVector(2)
	if _, err := array.NewRunner(a, bld3.Trace(), array.IdentityMapper(8, 2), nil); err == nil {
		t.Error("trace/array lane mismatch accepted")
	}
}

// buildMult returns an 4-bit multiply trace over the given lanes and the
// product's first read slot.
func buildMult(lanes, capacity int) (*program.Trace, int) {
	bld := program.NewBuilder(lanes, capacity)
	xb, _ := bld.WriteVector(4)
	yb, _ := bld.WriteVector(4)
	prod := synth.Dadda(bld, synth.NAND, xb, yb)
	slot := bld.ReadVector(prod)
	return bld.Trace(), slot
}

func multData(words [][2]uint64) array.DataFunc {
	return func(slot, lane int) bool {
		return words[lane][slot/4]>>uint(slot%4)&1 == 1
	}
}

// The central invariant of §3.2: re-mapping must never change computed
// values. Run a multiply under arbitrary permutations, with and without
// hardware renaming, remapping between iterations — results stay exact.
func TestMappingInvariance(t *testing.T) {
	const lanes, rows = 8, 96
	rng := rand.New(rand.NewSource(21))
	words := make([][2]uint64, lanes)
	for l := range words {
		words[l] = [2]uint64{rng.Uint64() & 15, rng.Uint64() & 15}
	}
	tr, slot := buildMult(lanes, rows-1)

	for _, useHw := range []bool{false, true} {
		archRows := rows
		var hw *mapping.HwRenamer
		if useHw {
			hw = mapping.NewHwRenamer(rows)
			archRows = rows - 1
		}
		a := array.New(array.Config{BitsPerLane: rows, Lanes: lanes})
		m := array.Mapper{Within: mapping.RandomPerm(archRows, rng), Between: mapping.RandomPerm(lanes, rng), Hw: hw}
		r, err := array.NewRunner(a, tr, m, multData(words))
		if err != nil {
			t.Fatal(err)
		}
		for iter := 0; iter < 6; iter++ {
			r.RunIteration()
			for l := 0; l < lanes; l++ {
				want := words[l][0] * words[l][1]
				if got := r.OutWord(slot, 8, l); got != want {
					t.Fatalf("hw=%v iter %d lane %d: got %d, want %d", useHw, iter, l, got, want)
				}
			}
			if err := r.Remap(mapping.RandomPerm(archRows, rng), mapping.RandomPerm(lanes, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Remap must preserve values that were written before the remap (oracular
// data migration): write operands, remap, then compute.
func TestRemapMigratesState(t *testing.T) {
	const lanes, rows = 4, 64
	rng := rand.New(rand.NewSource(33))

	bld := program.NewBuilder(lanes, rows)
	xb, _ := bld.WriteVector(4)
	yb, _ := bld.WriteVector(4)
	prodSlotStart := len(bld.Trace().Ops) // marker: ops after this compute
	_ = prodSlotStart
	prod := synth.Dadda(bld, synth.NAND, xb, yb)
	slot := bld.ReadVector(prod)
	tr := bld.Trace()

	words := make([][2]uint64, lanes)
	for l := range words {
		words[l] = [2]uint64{uint64(l + 3), uint64(2*l + 1)}
	}

	a := array.New(array.Config{BitsPerLane: rows, Lanes: lanes})
	r, err := array.NewRunner(a, tr, array.IdentityMapper(rows, lanes), multData(words))
	if err != nil {
		t.Fatal(err)
	}
	// First iteration under identity, then remap and rerun several times;
	// every rerun re-writes operands, but the remap between RunIteration
	// calls must carry all live state across.
	r.RunIteration()
	for i := 0; i < 4; i++ {
		if err := r.Remap(mapping.RandomPerm(rows, rng), mapping.RandomPerm(lanes, rng)); err != nil {
			t.Fatal(err)
		}
		r.RunIteration()
		for l := 0; l < lanes; l++ {
			want := words[l][0] * words[l][1]
			if got := r.OutWord(slot, 8, l); got != want {
				t.Fatalf("after remap %d, lane %d: got %d, want %d", i, l, got, want)
			}
		}
	}
}

// Hardware renaming spreads gate-output writes across rows: with Hw on,
// strictly more distinct cells receive writes than with Hw off for a
// workspace-heavy program.
func TestHwSpreadsWrites(t *testing.T) {
	const lanes, rows = 2, 64
	tr, _ := buildMult(lanes, rows-1)

	touched := func(useHw bool) int {
		a := array.New(array.Config{BitsPerLane: rows, Lanes: lanes})
		m := array.IdentityMapper(rows-1, lanes)
		if useHw {
			m.Hw = mapping.NewHwRenamer(rows)
		} else {
			m.Within = mapping.Identity(rows)
		}
		r, err := array.NewRunner(a, tr, m, multData([][2]uint64{{3, 5}, {7, 9}}))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			r.RunIteration()
		}
		n := 0
		for bit := 0; bit < rows; bit++ {
			if a.Writes(bit, 0) > 0 {
				n++
			}
		}
		return n
	}
	with, without := touched(true), touched(false)
	if with <= without {
		t.Errorf("Hw should touch more rows: with=%d without=%d", with, without)
	}
}

func TestCountersAndReset(t *testing.T) {
	const lanes = 2
	tr, _ := buildMult(lanes, 63)
	a := array.New(array.Config{BitsPerLane: 63, Lanes: lanes})
	r, err := array.NewRunner(a, tr, array.IdentityMapper(63, lanes), multData([][2]uint64{{1, 2}, {3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	r.RunIteration()
	// Trace-level totals must equal array-level totals.
	if got, want := a.TotalWrites(), uint64(tr.CellWrites(false)); got != want {
		t.Errorf("total writes %d, want %d", got, want)
	}
	if got, want := a.TotalReads(), uint64(tr.CellReads()); got != want {
		t.Errorf("total reads %d, want %d", got, want)
	}
	if a.MaxWrites() == 0 {
		t.Error("max writes should be positive")
	}
	sum := uint64(0)
	for _, w := range a.WriteCounts() {
		sum += w
	}
	if sum != a.TotalWrites() {
		t.Error("WriteCounts copy inconsistent")
	}
	a.ResetCounters()
	if a.TotalWrites() != 0 || a.TotalReads() != 0 || a.MaxWrites() != 0 {
		t.Error("reset failed")
	}
	if len(a.ReadCounts()) != 63*lanes {
		t.Error("ReadCounts size wrong")
	}
	if a.Config().Lanes != lanes {
		t.Error("config accessor wrong")
	}
}

// With preset on, every gate op contributes exactly 2 writes to its output
// cell; trace-level and array-level accounting must agree.
func TestPresetAccountingAgreement(t *testing.T) {
	const lanes = 3
	tr, _ := buildMult(lanes, 63)
	a := array.New(array.Config{BitsPerLane: 63, Lanes: lanes, PresetOutputs: true})
	r, err := array.NewRunner(a, tr, array.IdentityMapper(63, lanes), multData([][2]uint64{{5, 6}, {7, 8}, {9, 10}}))
	if err != nil {
		t.Fatal(err)
	}
	r.RunIteration()
	if got, want := a.TotalWrites(), uint64(tr.CellWrites(true)); got != want {
		t.Errorf("preset total writes %d, want %d", got, want)
	}
}

// The word-parallel runner on a multi-word array must be bit-identical to
// the scalar reference: same computed values and the same per-cell
// write/read counters, across remaps, with and without hardware renaming.
// Lanes deliberately not a multiple of 64 so the last lane word is
// partial.
func TestWordParallelBatchIdentity(t *testing.T) {
	const lanes, rows = 64*4 + 17, 96
	rng := rand.New(rand.NewSource(7))
	words := make([][2]uint64, lanes)
	for l := range words {
		words[l] = [2]uint64{rng.Uint64() & 15, rng.Uint64() & 15}
	}
	tr, slot := buildMult(lanes, rows-1)

	type outcome struct {
		vals   []uint64
		writes []uint64
		reads  []uint64
	}
	run := func(scalar, useHw bool) outcome {
		prng := rand.New(rand.NewSource(99))
		archRows := rows
		var hw *mapping.HwRenamer
		if useHw {
			hw = mapping.NewHwRenamer(rows)
			archRows = rows - 1
		}
		a := array.New(array.Config{BitsPerLane: rows, Lanes: lanes})
		m := array.Mapper{Within: mapping.RandomPerm(archRows, prng), Between: mapping.RandomPerm(lanes, prng), Hw: hw}
		newRunner := array.NewRunner
		if scalar {
			newRunner = array.NewScalarRunner
		}
		r, err := newRunner(a, tr, m, multData(words))
		if err != nil {
			t.Fatal(err)
		}
		var o outcome
		for iter := 0; iter < 3; iter++ {
			r.RunIteration()
			if err := r.Remap(mapping.RandomPerm(archRows, prng), mapping.RandomPerm(lanes, prng)); err != nil {
				t.Fatal(err)
			}
		}
		o.vals = make([]uint64, lanes)
		for l := 0; l < lanes; l++ {
			o.vals[l] = r.OutWord(slot, 8, l)
		}
		o.writes = a.WriteCounts()
		o.reads = a.ReadCounts()
		return o
	}

	for _, useHw := range []bool{false, true} {
		ref := run(true, useHw)
		for l, v := range ref.vals {
			if want := words[l][0] * words[l][1]; v != want {
				t.Fatalf("hw=%v scalar lane %d: got %d, want %d", useHw, l, v, want)
			}
		}
		got := run(false, useHw)
		for l := range ref.vals {
			if got.vals[l] != ref.vals[l] {
				t.Fatalf("hw=%v lane %d: value %d, scalar %d", useHw, l, got.vals[l], ref.vals[l])
			}
		}
		for i := range ref.writes {
			if got.writes[i] != ref.writes[i] || got.reads[i] != ref.reads[i] {
				t.Fatalf("hw=%v cell %d: writes/reads (%d,%d), scalar (%d,%d)",
					useHw, i, got.writes[i], got.reads[i], ref.writes[i], ref.reads[i])
			}
		}
	}
}
