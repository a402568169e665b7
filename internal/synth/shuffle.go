package synth

import (
	"pimendure/internal/gates"
	"pimendure/internal/program"
)

// CopyVector emits one COPY gate per bit, duplicating a vector into freshly
// allocated bits. It is the shuffle primitive of the paper's
// memory-access-aware re-mapping (§3.2, Fig. 10): operands are moved to new
// physical locations with in-array gates so that standard memory read and
// write access patterns stay untouched.
func CopyVector(bld *program.Builder, src []program.Bit) []program.Bit {
	dst := make([]program.Bit, len(src))
	for i, s := range src {
		dst[i] = bld.Copy(s)
	}
	return dst
}

// ShuffledMult makes §3.2's memory-access-aware re-mapping executable
// (Fig. 10): the two input operands are first copied to freshly allocated
// workspace locations with COPY gates (2b gates — this is the shuffle: the
// fresh bits land wherever the allocator's current state puts them), the
// multiplication runs on the copies, and the 2b-bit product is copied back
// into caller-provided output bits (2b more gates) so that standard memory
// reads and writes observe the original layout. Total overhead is exactly
// ShuffleCopyGates(ShuffleMult, b) = 4b COPY gates on top of the
// multiplication.
//
// out must hold 2·len(x) pre-allocated bits (the "expected destination").
func ShuffledMult(bld *program.Builder, basis Basis, x, y, out []program.Bit) {
	if len(out) != 2*len(x) {
		panic("synth: ShuffledMult needs a 2b-bit destination")
	}
	sx := CopyVector(bld, x)
	sy := CopyVector(bld, y)
	prod := Dadda(bld, basis, sx, sy)
	bld.Free(sx...)
	bld.Free(sy...)
	for i, p := range prod {
		bld.GateInto(gates.COPY, p, program.NoBit, out[i])
	}
	bld.Free(prod...)
}

// ShuffleOp identifies the arithmetic operation whose shuffle overhead is
// being modelled in Table 2.
type ShuffleOp int

const (
	// ShuffleMult is b-bit multiplication (Dadda): inputs 2·b bits moved
	// in, output 2·b bits moved back ⇒ 4b COPY gates on top of 6b²−8b
	// computation gates.
	ShuffleMult ShuffleOp = iota
	// ShuffleAdd is b-bit ripple-carry addition: inputs 2·b bits, output
	// b+1 bits ⇒ 3b+1 COPY gates on top of 5b−3 computation gates.
	ShuffleAdd
)

// ShuffleCopyGates returns the number of COPY gates memory-access-aware
// shuffling adds for a b-bit operation: 2b to place the two input operands
// plus the output width to restore the result (2b for multiplication,
// b+1 for addition).
func ShuffleCopyGates(op ShuffleOp, b int) int {
	switch op {
	case ShuffleMult:
		return 4 * b
	case ShuffleAdd:
		return 3*b + 1
	}
	panic("synth: unknown shuffle op")
}

// ComputeGates returns the Mixed2-basis computation gate count Table 2 is
// normalized against: 6b²−8b for multiplication, 5b−3 for addition.
func ComputeGates(op ShuffleOp, b int) int {
	switch op {
	case ShuffleMult:
		return MultiplierGates(Mixed2, b)
	case ShuffleAdd:
		return RippleCarryGates(Mixed2, b)
	}
	panic("synth: unknown shuffle op")
}

// ShuffleOverhead returns Table 2's relative overhead — extra COPY gates
// divided by computation gates — for a b-bit operation. The overhead
// corresponds directly to extra latency and energy because all gates are
// sequential.
func ShuffleOverhead(op ShuffleOp, b int) float64 {
	return float64(ShuffleCopyGates(op, b)) / float64(ComputeGates(op, b))
}
