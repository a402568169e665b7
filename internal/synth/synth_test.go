package synth_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pimendure/internal/array"
	"pimendure/internal/program"
	"pimendure/internal/synth"
)

// runLanes builds a circuit with build, feeds per-lane operand bits from
// data, executes one iteration on an identity-mapped array, and returns the
// runner for output inspection.
func runLanes(t *testing.T, lanes, capacity int, build func(b *program.Builder), data array.DataFunc) *array.Runner {
	t.Helper()
	bld := program.NewBuilder(lanes, capacity)
	build(bld)
	tr := bld.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	arr := array.New(array.Config{BitsPerLane: capacity, Lanes: lanes})
	r, err := array.NewRunner(arr, tr, array.IdentityMapper(capacity, lanes), data)
	if err != nil {
		t.Fatal(err)
	}
	r.RunIteration()
	return r
}

// wordData serves operand words (LSB-first across consecutive slots) from a
// matrix words[lane][operand].
func wordData(width int, words [][]uint64) array.DataFunc {
	return func(slot, lane int) bool {
		op := slot / width
		bit := uint(slot % width)
		return words[lane][op]>>bit&1 == 1
	}
}

func TestFullAdderFunctional(t *testing.T) {
	for _, basis := range synth.Bases() {
		for v := 0; v < 8; v++ {
			a, b, c := v&1 == 1, v&2 == 2, v&4 == 4
			var sumSlot int
			r := runLanes(t, 1, 64, func(bld *program.Builder) {
				in, _ := bld.WriteVector(3)
				s, co := basis.FullAdder(bld, in[0], in[1], in[2])
				sumSlot = bld.Read(s)
				bld.Read(co)
			}, func(slot, lane int) bool {
				return []bool{a, b, c}[slot]
			})
			n := 0
			for _, x := range []bool{a, b, c} {
				if x {
					n++
				}
			}
			if got := int(r.OutWord(sumSlot, 2, 0)); got != n {
				t.Errorf("%s FA(%v,%v,%v) = %d, want %d", basis.Name(), a, b, c, got, n)
			}
		}
	}
}

func TestHalfAdderFunctional(t *testing.T) {
	for _, basis := range synth.Bases() {
		for v := 0; v < 4; v++ {
			a, b := v&1 == 1, v&2 == 2
			var slot int
			r := runLanes(t, 1, 64, func(bld *program.Builder) {
				in, _ := bld.WriteVector(2)
				s, co := basis.HalfAdder(bld, in[0], in[1])
				slot = bld.Read(s)
				bld.Read(co)
			}, func(s, _ int) bool { return []bool{a, b}[s] })
			n := 0
			if a {
				n++
			}
			if b {
				n++
			}
			if got := int(r.OutWord(slot, 2, 0)); got != n {
				t.Errorf("%s HA(%v,%v) = %d, want %d", basis.Name(), a, b, got, n)
			}
		}
	}
}

func TestBasisGateHelpersFunctional(t *testing.T) {
	for _, basis := range synth.Bases() {
		for v := 0; v < 4; v++ {
			a, b := v&1 == 1, v&2 == 2
			var orSlot, xorSlot, andSlot int
			r := runLanes(t, 1, 64, func(bld *program.Builder) {
				in, _ := bld.WriteVector(2)
				orSlot = bld.Read(basis.Or(bld, in[0], in[1]))
				xorSlot = bld.Read(basis.Xor(bld, in[0], in[1]))
				andSlot = bld.Read(basis.And(bld, in[0], in[1]))
			}, func(s, _ int) bool { return []bool{a, b}[s] })
			if r.Out(orSlot, 0) != (a || b) {
				t.Errorf("%s Or(%v,%v) wrong", basis.Name(), a, b)
			}
			if r.Out(xorSlot, 0) != (a != b) {
				t.Errorf("%s Xor(%v,%v) wrong", basis.Name(), a, b)
			}
			if r.Out(andSlot, 0) != (a && b) {
				t.Errorf("%s And(%v,%v) wrong", basis.Name(), a, b)
			}
		}
	}
}

// The Fig. 2 decomposition: a NAND-basis full adder is exactly 9 gates and
// a half adder 5 gates (one unary); Mixed2 uses the 5/2 minimum.
func TestAdderGateCounts(t *testing.T) {
	count := func(basis synth.Basis, full bool) (gates, unary int) {
		bld := program.NewBuilder(1, 64)
		in := bld.AllocN(3)
		if full {
			basis.FullAdder(bld, in[0], in[1], in[2])
		} else {
			basis.HalfAdder(bld, in[0], in[1])
		}
		for _, op := range bld.Trace().Ops {
			if op.Kind == program.OpGate {
				gates++
				if op.Gate.Arity() == 1 {
					unary++
				}
			}
		}
		return
	}
	if g, u := count(synth.NAND, true); g != 9 || u != 0 {
		t.Errorf("NAND FA: %d gates (%d unary), want 9 (0)", g, u)
	}
	if g, u := count(synth.NAND, false); g != 5 || u != 1 {
		t.Errorf("NAND HA: %d gates (%d unary), want 5 (1)", g, u)
	}
	if g, _ := count(synth.Mixed2, true); g != 5 {
		t.Errorf("Mixed2 FA: %d gates, want 5", g)
	}
	if g, _ := count(synth.Mixed2, false); g != 2 {
		t.Errorf("Mixed2 HA: %d gates, want 2", g)
	}
	if g, u := count(synth.NOR, true); g != 9 || u != 0 {
		t.Errorf("NOR FA: %d gates (%d unary), want 9 (0)", g, u)
	}
	if g, u := count(synth.NOR, false); g != 6 || u != 1 {
		t.Errorf("NOR HA: %d gates (%d unary), want 6 (1)", g, u)
	}
}

// The NOR basis (MAGIC-style) costs one extra gate per half adder: a
// 32-bit multiply is 10b²−12b = 9 856 gates vs the NAND basis's 9 824.
func TestNORBasisMultiplierGates(t *testing.T) {
	if got, want := synth.MultiplierGates(synth.NOR, 32), 10*32*32-12*32; got != want {
		t.Errorf("NOR 32-bit multiply = %d gates, want %d", got, want)
	}
}

func TestRippleCarryAddFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, basis := range synth.Bases() {
		for trial := 0; trial < 25; trial++ {
			b := 1 + rng.Intn(16)
			x := rng.Uint64() & (1<<uint(b) - 1)
			y := rng.Uint64() & (1<<uint(b) - 1)
			var slot int
			r := runLanes(t, 1, 16*b+32, func(bld *program.Builder) {
				xb, _ := bld.WriteVector(b)
				yb, _ := bld.WriteVector(b)
				sum := synth.RippleCarryAdd(bld, basis, xb, yb)
				slot = bld.ReadVector(sum)
			}, wordData(b, [][]uint64{{x, y}}))
			if got := r.OutWord(slot, b+1, 0); got != x+y {
				t.Errorf("%s: %d+%d = %d, want %d (b=%d)", basis.Name(), x, y, got, x+y, b)
			}
		}
	}
}

func TestRippleCarryGateCount(t *testing.T) {
	for _, b := range []int{4, 8, 16, 32, 64} {
		// Mixed2: the paper's 5b−3 (§3.2).
		if got, want := synth.RippleCarryGates(synth.Mixed2, b), 5*b-3; got != want {
			t.Errorf("mixed2 add b=%d: %d gates, want %d", b, got, want)
		}
		// NAND: 9(b−1)+5.
		if got, want := synth.RippleCarryGates(synth.NAND, b), 9*(b-1)+5; got != want {
			t.Errorf("nand add b=%d: %d gates, want %d", b, got, want)
		}
		// Analytic matches synthesized.
		bld := program.NewBuilder(1, 32*b)
		xb := bld.AllocN(b)
		yb := bld.AllocN(b)
		synth.RippleCarryAdd(bld, synth.Mixed2, xb, yb)
		gates := 0
		for _, op := range bld.Trace().Ops {
			if op.Kind == program.OpGate {
				gates++
			}
		}
		if gates != 5*b-3 {
			t.Errorf("synthesized mixed2 add b=%d: %d gates, want %d", b, gates, 5*b-3)
		}
	}
}

func TestAddUnevenFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		wx := 2 + rng.Intn(12)
		wy := 1 + rng.Intn(wx)
		x := rng.Uint64() & (1<<uint(wx) - 1)
		y := rng.Uint64() & (1<<uint(wy) - 1)
		var slot int
		r := runLanes(t, 1, 32*wx+32, func(bld *program.Builder) {
			xb, _ := bld.WriteVector(wx)
			yb, _ := bld.WriteVector(wy)
			sum := synth.AddUneven(bld, synth.NAND, xb, yb)
			slot = bld.ReadVector(sum)
		}, func(slot, _ int) bool {
			if slot < wx {
				return x>>uint(slot)&1 == 1
			}
			return y>>uint(slot-wx)&1 == 1
		})
		if got := r.OutWord(slot, wx+1, 0); got != x+y {
			t.Errorf("AddUneven %d+%d = %d, want %d (wx=%d wy=%d)", x, y, got, x+y, wx, wy)
		}
	}
}

// The Dadda composition identity from §2.2: b²−2b full adds, b half adds,
// b² AND gates — for every precision the paper sweeps.
func TestDaddaCellCounts(t *testing.T) {
	for _, b := range []int{2, 4, 8, 16, 32, 64} {
		c := synth.MultiplierCounts(synth.NAND, b)
		if c.FullAdders != b*b-2*b {
			t.Errorf("b=%d: %d FAs, want %d", b, c.FullAdders, b*b-2*b)
		}
		if c.HalfAdders != b {
			t.Errorf("b=%d: %d HAs, want %d", b, c.HalfAdders, b)
		}
		if c.Ands != b*b {
			t.Errorf("b=%d: %d ANDs, want %d", b, c.Ands, b*b)
		}
	}
}

// §3.1's headline numbers: a 32-bit in-memory multiply is 9 824 gates ⇒
// 9 824 cell writes and 19 616 cell reads in the NAND basis.
func TestDaddaPaperCalibration(t *testing.T) {
	bld := program.NewBuilder(1, 4096)
	x := bld.AllocN(32)
	y := bld.AllocN(32)
	synth.Dadda(bld, synth.NAND, x, y)
	tr := bld.Trace()
	gates := 0
	for _, op := range tr.Ops {
		if op.Kind == program.OpGate {
			gates++
		}
	}
	if gates != 9824 {
		t.Errorf("32-bit NAND multiply: %d gates, want 9824", gates)
	}
	if w := tr.CellWrites(false); w != 9824 {
		t.Errorf("cell writes = %d, want 9824", w)
	}
	if r := tr.CellReads(); r != 19616 {
		t.Errorf("cell reads = %d, want 19616", r)
	}
	if got, want := synth.MultiplierGates(synth.NAND, 32), 9824; got != want {
		t.Errorf("analytic NAND gates = %d, want %d", got, want)
	}
	if got, want := synth.MultiplierGates(synth.Mixed2, 32), 6*32*32-8*32; got != want {
		t.Errorf("analytic Mixed2 gates = %d, want %d", got, want)
	}
}

func TestDaddaFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, basis := range synth.Bases() {
		for _, b := range []int{2, 3, 4, 8} {
			for trial := 0; trial < 10; trial++ {
				x := rng.Uint64() & (1<<uint(b) - 1)
				y := rng.Uint64() & (1<<uint(b) - 1)
				var slot int
				r := runLanes(t, 1, 16*b*b+64, func(bld *program.Builder) {
					xb, _ := bld.WriteVector(b)
					yb, _ := bld.WriteVector(b)
					prod := synth.Dadda(bld, basis, xb, yb)
					slot = bld.ReadVector(prod)
				}, wordData(b, [][]uint64{{x, y}}))
				if got := r.OutWord(slot, 2*b, 0); got != x*y {
					t.Errorf("%s b=%d: %d×%d = %d, want %d", basis.Name(), b, x, y, got, x*y)
				}
			}
		}
	}
}

// Property: 8-bit NAND-basis multiplication is exact for all operand pairs
// quick generates.
func TestDaddaProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		var slot int
		r := runLanes(t, 1, 2048, func(bld *program.Builder) {
			xb, _ := bld.WriteVector(8)
			yb, _ := bld.WriteVector(8)
			prod := synth.Dadda(bld, synth.NAND, xb, yb)
			slot = bld.ReadVector(prod)
		}, wordData(8, [][]uint64{{uint64(x), uint64(y)}}))
		return r.OutWord(slot, 16, 0) == uint64(x)*uint64(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The multiplier is SIMD: every lane computes its own product in one pass.
func TestDaddaMultiLane(t *testing.T) {
	const lanes, b = 8, 6
	rng := rand.New(rand.NewSource(8))
	words := make([][]uint64, lanes)
	for l := range words {
		words[l] = []uint64{rng.Uint64() & 63, rng.Uint64() & 63}
	}
	var slot int
	r := runLanes(t, lanes, 1024, func(bld *program.Builder) {
		xb, _ := bld.WriteVector(b)
		yb, _ := bld.WriteVector(b)
		prod := synth.Dadda(bld, synth.NAND, xb, yb)
		slot = bld.ReadVector(prod)
	}, wordData(b, words))
	for l := 0; l < lanes; l++ {
		want := words[l][0] * words[l][1]
		if got := r.OutWord(slot, 2*b, l); got != want {
			t.Errorf("lane %d: got %d, want %d", l, got, want)
		}
	}
}

func TestDaddaRejectsBadWidths(t *testing.T) {
	bld := program.NewBuilder(1, 64)
	x := bld.AllocN(2)
	y := bld.AllocN(3)
	for _, fn := range []func(){
		func() { synth.Dadda(bld, synth.NAND, x, y) },
		func() { synth.Dadda(bld, synth.NAND, x[:1], y[:1]) },
		func() { synth.RippleCarryAdd(bld, synth.NAND, x, y) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGreaterEqualFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, basis := range synth.Bases() {
		for trial := 0; trial < 40; trial++ {
			b := 1 + rng.Intn(12)
			x := rng.Uint64() & (1<<uint(b) - 1)
			y := rng.Uint64() & (1<<uint(b) - 1)
			var slot int
			r := runLanes(t, 1, 32*b+64, func(bld *program.Builder) {
				xb, _ := bld.WriteVector(b)
				yb, _ := bld.WriteVector(b)
				slot = bld.Read(synth.GreaterEqual(bld, basis, xb, yb))
			}, wordData(b, [][]uint64{{x, y}}))
			if got := r.Out(slot, 0); got != (x >= y) {
				t.Errorf("%s b=%d: GE(%d,%d) = %v", basis.Name(), b, x, y, got)
			}
		}
	}
}

func TestEqualFunctional(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		b := 1 + rng.Intn(10)
		x := rng.Uint64() & (1<<uint(b) - 1)
		y := x
		if trial%2 == 0 {
			y = rng.Uint64() & (1<<uint(b) - 1)
		}
		var slot int
		r := runLanes(t, 1, 32*b+64, func(bld *program.Builder) {
			xb, _ := bld.WriteVector(b)
			yb, _ := bld.WriteVector(b)
			slot = bld.Read(synth.Equal(bld, synth.Mixed2, xb, yb))
		}, wordData(b, [][]uint64{{x, y}}))
		if got := r.Out(slot, 0); got != (x == y) {
			t.Errorf("EQ(%d,%d) = %v (b=%d)", x, y, got, b)
		}
	}
}

func TestCopyAndDoubleNotVectors(t *testing.T) {
	const b = 8
	x := uint64(0xA5)
	var copySlot int
	r := runLanes(t, 1, 256, func(bld *program.Builder) {
		xb, _ := bld.WriteVector(b)
		copySlot = bld.ReadVector(synth.CopyVector(bld, xb))
	}, wordData(b, [][]uint64{{x}}))
	if got := r.OutWord(copySlot, b, 0); got != x {
		t.Errorf("CopyVector = %#x, want %#x", got, x)
	}
}

// Table 2 of the paper, exactly.
func TestShuffleOverheadTable2(t *testing.T) {
	cases := []struct {
		b         int
		mult, add float64 // percent, as printed in the paper
	}{
		{4, 25, 76.47},
		{8, 10, 67.57},
		{16, 4.55, 63.64},
		{32, 2.17, 61.78},
		{64, 1.06, 60.88},
	}
	for _, c := range cases {
		gotM := synth.ShuffleOverhead(synth.ShuffleMult, c.b) * 100
		gotA := synth.ShuffleOverhead(synth.ShuffleAdd, c.b) * 100
		if gotM-c.mult > 0.005 || c.mult-gotM > 0.005 {
			t.Errorf("b=%d mult overhead = %.2f%%, want %.2f%%", c.b, gotM, c.mult)
		}
		if gotA-c.add > 0.005 || c.add-gotA > 0.005 {
			t.Errorf("b=%d add overhead = %.2f%%, want %.2f%%", c.b, gotA, c.add)
		}
	}
}

func TestShuffleCopyGates(t *testing.T) {
	if got := synth.ShuffleCopyGates(synth.ShuffleMult, 32); got != 128 {
		t.Errorf("mult shuffle gates = %d, want 128", got)
	}
	if got := synth.ShuffleCopyGates(synth.ShuffleAdd, 32); got != 97 {
		t.Errorf("add shuffle gates = %d, want 97", got)
	}
}

// All circuits must free every intermediate: after building and freeing the
// declared outputs, live bits return to the inputs only.
func TestCircuitsFreeIntermediates(t *testing.T) {
	bld := program.NewBuilder(1, 8192)
	x := bld.AllocN(16)
	y := bld.AllocN(16)
	base := bld.Live()
	prod := synth.Dadda(bld, synth.NAND, x, y)
	bld.Free(prod...)
	if bld.Live() != base {
		t.Errorf("Dadda leaked %d bits", bld.Live()-base)
	}
	sum := synth.RippleCarryAdd(bld, synth.Mixed2, x, y)
	bld.Free(sum...)
	if bld.Live() != base {
		t.Errorf("RippleCarryAdd leaked %d bits", bld.Live()-base)
	}
	ge := synth.GreaterEqual(bld, synth.NAND, x, y)
	bld.Free(ge)
	if bld.Live() != base {
		t.Errorf("GreaterEqual leaked %d bits", bld.Live()-base)
	}
	eq := synth.Equal(bld, synth.Mixed2, x, y)
	bld.Free(eq)
	if bld.Live() != base {
		t.Errorf("Equal leaked %d bits", bld.Live()-base)
	}
}
