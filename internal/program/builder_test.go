package program

import (
	"testing"
	"testing/quick"

	"pimendure/internal/gates"
)

func TestAllocLowestFirst(t *testing.T) {
	b := NewBuilder(1, 64)
	b.SetAllocPolicy(LowestFirst)
	bits := b.AllocN(4)
	for i, bit := range bits {
		if bit != Bit(i) {
			t.Fatalf("alloc %d = %d, want %d", i, bit, i)
		}
	}
	b.Free(bits[1])
	b.Free(bits[3])
	// Lowest freed address must be reused first.
	if got := b.Alloc(); got != 1 {
		t.Errorf("reuse = %d, want 1", got)
	}
	if got := b.Alloc(); got != 3 {
		t.Errorf("reuse = %d, want 3", got)
	}
	// Then fresh addresses.
	if got := b.Alloc(); got != 4 {
		t.Errorf("fresh = %d, want 4", got)
	}
}

func TestAllocNextFitRotates(t *testing.T) {
	b := NewBuilder(1, 8)
	if b.AllocPolicy() != NextFit {
		t.Fatal("default policy should be next-fit")
	}
	bits := b.AllocN(4) // 0,1,2,3
	b.Free(bits[0], bits[1], bits[2], bits[3])
	// Next-fit continues past the freed region rather than reusing it.
	if got := b.Alloc(); got != 4 {
		t.Errorf("next-fit alloc = %d, want 4", got)
	}
	b.AllocN(3) // 5,6,7
	// Wraps to the freed low addresses.
	if got := b.Alloc(); got != 0 {
		t.Errorf("wrapped alloc = %d, want 0", got)
	}
	if got := b.Alloc(); got != 1 {
		t.Errorf("wrapped alloc = %d, want 1", got)
	}
}

func TestAllocNextFitSkipsLive(t *testing.T) {
	b := NewBuilder(1, 4)
	bits := b.AllocN(4)
	b.Free(bits[1]) // only bit 1 free; cursor at wrap
	if got := b.Alloc(); got != 1 {
		t.Errorf("alloc = %d, want the only free bit 1", got)
	}
}

func TestAllocPolicyString(t *testing.T) {
	if NextFit.String() == LowestFirst.String() {
		t.Error("policy names collide")
	}
}

func TestLiveAndMaxLive(t *testing.T) {
	b := NewBuilder(1, 64)
	x := b.AllocN(5)
	if b.Live() != 5 {
		t.Fatalf("live %d", b.Live())
	}
	b.Free(x[0], x[1], x[2])
	if b.Live() != 2 {
		t.Fatalf("after free: live %d", b.Live())
	}
}

func TestDoubleFreePanics(t *testing.T) {
	b := NewBuilder(1, 8)
	x := b.Alloc()
	b.Free(x)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	b.Free(x)
}

func TestCapacityExhaustionPanics(t *testing.T) {
	b := NewBuilder(1, 3)
	b.AllocN(3)
	defer func() {
		if recover() == nil {
			t.Error("capacity exhaustion should panic")
		}
	}()
	b.Alloc()
}

func TestUseOfUnallocatedBitPanics(t *testing.T) {
	b := NewBuilder(1, 8)
	x := b.Alloc()
	y := b.Alloc()
	b.Free(y)
	defer func() {
		if recover() == nil {
			t.Error("gate on freed bit should panic")
		}
	}()
	b.Gate(gates.AND, x, y)
}

func TestGateEmission(t *testing.T) {
	b := NewBuilder(8, 32)
	x := b.Alloc()
	y := b.Alloc()
	out := b.Gate(gates.NAND, x, y)
	n := b.Not(out)
	c := b.Copy(n)
	tr := b.Trace()
	if len(tr.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(tr.Ops))
	}
	if tr.Ops[0].Gate != gates.NAND || tr.Ops[0].Out != out {
		t.Error("NAND op malformed")
	}
	if tr.Ops[1].Gate != gates.NOT || tr.Ops[1].In1 != NoBit {
		t.Error("NOT op should have no second input")
	}
	if tr.Ops[2].Gate != gates.COPY || tr.Ops[2].Out != c {
		t.Error("COPY op malformed")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadVectors(t *testing.T) {
	b := NewBuilder(4, 64)
	bits, slot0 := b.WriteVector(8)
	if len(bits) != 8 || slot0 != 0 {
		t.Fatalf("WriteVector: %d bits, slot %d", len(bits), slot0)
	}
	r0 := b.ReadVector(bits)
	if r0 != 0 {
		t.Fatalf("ReadVector first slot = %d", r0)
	}
	tr := b.Trace()
	if tr.WriteSlots != 8 || tr.ReadSlots != 8 {
		t.Fatalf("slots: w%d r%d", tr.WriteSlots, tr.ReadSlots)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveVectorAllocates(t *testing.T) {
	b := NewBuilder(8, 64)
	src := b.AllocN(4)
	b.SetMask(RangeMask(8, 0, 4))
	dst := b.MoveVector(src, nil, 4)
	if len(dst) != 4 {
		t.Fatalf("dst len = %d", len(dst))
	}
	tr := b.Trace()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	moves := 0
	for _, op := range tr.Ops {
		if op.Kind == OpMove {
			moves++
			if op.LaneShift != 4 {
				t.Errorf("lane shift = %d, want 4", op.LaneShift)
			}
		}
	}
	if moves != 4 {
		t.Errorf("moves = %d, want 4", moves)
	}
}

func TestMoveVectorLengthMismatchPanics(t *testing.T) {
	b := NewBuilder(8, 64)
	src := b.AllocN(4)
	dst := b.AllocN(3)
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	b.MoveVector(src, dst, 0)
}

func TestSetMaskAffectsOps(t *testing.T) {
	b := NewBuilder(16, 16)
	x := b.Alloc()
	b.Write(x)
	half := RangeMask(16, 0, 8)
	b.SetMask(half)
	b.Write(x)
	b.SetFullMask()
	b.Write(x)
	tr := b.Trace()
	if !tr.Mask(tr.Ops[0].Mask).Full() {
		t.Error("first op should be full-mask")
	}
	if tr.Mask(tr.Ops[1].Mask).Count() != 8 {
		t.Error("second op should be half-mask")
	}
	if !tr.Mask(tr.Ops[2].Mask).Full() {
		t.Error("third op should be full-mask again")
	}
	if len(tr.Masks) != 2 {
		t.Errorf("mask table = %d entries, want 2 (full deduped)", len(tr.Masks))
	}
}

// Property: after any interleaving of allocs and frees, the set of
// addresses handed out and not yet freed is exactly the builder's live set,
// and no address is ever handed out twice while live.
func TestAllocatorNoAliasingProperty(t *testing.T) {
	f := func(script []byte, lowestFirst bool) bool {
		b := NewBuilder(1, 512)
		if lowestFirst {
			b.SetAllocPolicy(LowestFirst)
		}
		live := map[Bit]bool{}
		order := []Bit{}
		for _, cmd := range script {
			if cmd%3 == 0 && len(order) > 0 {
				// free the oldest live bit
				var victim Bit = -1
				for _, bit := range order {
					if live[bit] {
						victim = bit
						break
					}
				}
				if victim >= 0 {
					b.Free(victim)
					delete(live, victim)
				}
			} else {
				bit := b.Alloc()
				if live[bit] {
					return false // aliasing!
				}
				live[bit] = true
				order = append(order, bit)
			}
		}
		return b.Live() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
