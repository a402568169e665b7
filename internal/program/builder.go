package program

import (
	"container/heap"
	"fmt"

	"pimendure/internal/gates"
)

// AllocPolicy selects how freed logical bits are reused. The policy shapes
// the static write distribution within a lane and is therefore
// load-bearing for the endurance results (an ablation in the benchmark
// suite quantifies it).
type AllocPolicy uint8

const (
	// NextFit hands out the next free address after the last allocation,
	// wrapping around the lane. This matches the paper's simulator ("for
	// each gate in the program, 1 new bit of logical memory is
	// allocated for the output"): workspace traffic rotates through the
	// lane, so even the static layout is only mildly imbalanced.
	NextFit AllocPolicy = iota
	// LowestFirst always reuses the lowest freed address, concentrating
	// workspace traffic in a few hot cells — the adversarial allocator.
	LowestFirst
)

// String names the policy.
func (p AllocPolicy) String() string {
	if p == NextFit {
		return "next-fit"
	}
	return "lowest-first"
}

// bitHeap is a min-heap of freed logical bit addresses for LowestFirst.
type bitHeap []Bit

func (h bitHeap) Len() int            { return len(h) }
func (h bitHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h bitHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *bitHeap) Push(x interface{}) { *h = append(*h, x.(Bit)) }
func (h *bitHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Builder constructs a Trace while managing the logical bit space of a
// lane. Following the paper's simulator (§4): one new logical bit is
// allocated per gate output, and logical bits are freed once no longer
// needed.
type Builder struct {
	trace    *Trace
	capacity int
	policy   AllocPolicy
	free     bitHeap // LowestFirst reuse pool
	inUse    []bool
	high     int // LowestFirst high-water mark for fresh addresses
	cursor   int // NextFit scan position
	live     int
	curMask  MaskID
}

// NewBuilder returns a builder over the given number of lanes with the
// given per-lane logical bit capacity (e.g. 1023 on a 1024-row array with
// a spare row for hardware renaming). The allocation policy defaults to
// NextFit and the current mask starts full.
func NewBuilder(lanes, capacity int) *Builder {
	if capacity <= 0 {
		panic("program: capacity must be positive")
	}
	b := &Builder{
		trace:    NewTrace(lanes),
		capacity: capacity,
		inUse:    make([]bool, capacity),
	}
	b.curMask = b.trace.AddMask(FullMask(lanes))
	return b
}

// SetAllocPolicy switches the reuse policy for subsequent allocations.
func (b *Builder) SetAllocPolicy(p AllocPolicy) { b.policy = p }

// AllocPolicy returns the current policy.
func (b *Builder) AllocPolicy() AllocPolicy { return b.policy }

// SetMask makes subsequent ops execute in the given lanes.
func (b *Builder) SetMask(m *Mask) {
	b.curMask = b.trace.AddMask(m)
}

// SetFullMask makes subsequent ops execute in all lanes.
func (b *Builder) SetFullMask() {
	b.curMask = b.trace.AddMask(FullMask(b.trace.Lanes))
}

// CurrentMask returns the mask applied to subsequently emitted ops.
func (b *Builder) CurrentMask() *Mask { return b.trace.Mask(b.curMask) }

// Alloc reserves a free logical bit address according to the policy.
func (b *Builder) Alloc() Bit {
	if b.live >= b.capacity {
		panic(fmt.Sprintf("program: lane capacity %d exhausted", b.capacity))
	}
	var bit Bit
	switch b.policy {
	case NextFit:
		for i := 0; ; i++ {
			idx := (b.cursor + i) % b.capacity
			if !b.inUse[idx] {
				bit = Bit(idx)
				b.cursor = (idx + 1) % b.capacity
				break
			}
		}
	default: // LowestFirst
		if len(b.free) > 0 {
			bit = heap.Pop(&b.free).(Bit)
		} else {
			bit = Bit(b.high)
			b.high++
		}
	}
	b.inUse[bit] = true
	b.live++
	return bit
}

// AllocN reserves n bits.
func (b *Builder) AllocN(n int) []Bit {
	out := make([]Bit, n)
	for i := range out {
		out[i] = b.Alloc()
	}
	return out
}

// Free releases logical bits for reuse. Freeing an unallocated bit panics:
// it would silently corrupt the wear analysis.
func (b *Builder) Free(bits ...Bit) {
	for _, bit := range bits {
		if bit < 0 || int(bit) >= b.capacity || !b.inUse[bit] {
			panic(fmt.Sprintf("program: double free or invalid free of bit %d", bit))
		}
		b.inUse[bit] = false
		b.live--
		if b.policy == LowestFirst {
			heap.Push(&b.free, bit)
		}
	}
}

// Live returns the number of currently allocated bits.
func (b *Builder) Live() int { return b.live }

// Gate emits a gate reading in0 (and in1 for binary gates) into a freshly
// allocated output bit, which it returns.
func (b *Builder) Gate(k gates.Kind, in0, in1 Bit) Bit {
	b.checkAllocated(in0)
	if k.Arity() == 2 {
		b.checkAllocated(in1)
	}
	out := b.Alloc()
	b.GateInto(k, in0, in1, out)
	return out
}

// GateInto emits a gate writing into an existing allocated bit.
func (b *Builder) GateInto(k gates.Kind, in0, in1, out Bit) {
	if k.Arity() == 1 {
		in1 = NoBit
	}
	b.checkAllocated(in0)
	if k.Arity() == 2 {
		b.checkAllocated(in1)
	}
	b.checkAllocated(out)
	b.trace.Append(Op{Kind: OpGate, Gate: k, Out: out, In0: in0, In1: in1, Mask: b.curMask})
}

// Not emits a NOT gate into a fresh bit.
func (b *Builder) Not(in Bit) Bit { return b.Gate(gates.NOT, in, NoBit) }

// Copy emits a COPY gate into a fresh bit.
func (b *Builder) Copy(in Bit) Bit { return b.Gate(gates.COPY, in, NoBit) }

// Write emits a standard memory write of external data slot (returned) into
// the given bit in the current mask's lanes.
func (b *Builder) Write(addr Bit) int {
	b.checkAllocated(addr)
	slot := b.trace.WriteSlots
	b.trace.WriteSlots++
	b.trace.Append(Op{Kind: OpWrite, Out: addr, In0: NoBit, In1: NoBit, Mask: b.curMask, Data: int32(slot)})
	return slot
}

// WriteVector writes external data into each bit of a freshly allocated
// vector of n bits (an operand), returning the bits and the first data
// slot. Slots are consecutive, least-significant bit first.
func (b *Builder) WriteVector(n int) (bitsOut []Bit, firstSlot int) {
	bitsOut = b.AllocN(n)
	firstSlot = b.trace.WriteSlots
	for _, bit := range bitsOut {
		b.Write(bit)
	}
	return bitsOut, firstSlot
}

// Read emits a standard memory read of the given bit, returning the output
// data slot it lands in.
func (b *Builder) Read(addr Bit) int {
	b.checkAllocated(addr)
	slot := b.trace.ReadSlots
	b.trace.ReadSlots++
	b.trace.Append(Op{Kind: OpRead, Out: NoBit, In0: addr, In1: NoBit, Mask: b.curMask, Data: int32(slot)})
	return slot
}

// ReadVector reads each bit of a vector, returning the first output slot.
func (b *Builder) ReadVector(bitsIn []Bit) (firstSlot int) {
	firstSlot = b.trace.ReadSlots
	for _, bit := range bitsIn {
		b.Read(bit)
	}
	return firstSlot
}

// Move emits an inter-lane transfer: for every lane l in the current mask,
// bit src of lane l+laneShift is read and written into bit dst of lane l.
func (b *Builder) Move(src, dst Bit, laneShift int) {
	b.checkAllocated(src)
	b.checkAllocated(dst)
	b.trace.Append(Op{Kind: OpMove, Out: dst, In0: src, In1: NoBit, Mask: b.curMask, LaneShift: int32(laneShift)})
}

// MoveVector transfers a whole bit vector between lanes, allocating
// destination bits when dst is nil and returning them.
func (b *Builder) MoveVector(src []Bit, dst []Bit, laneShift int) []Bit {
	if dst == nil {
		dst = b.AllocN(len(src))
	}
	if len(dst) != len(src) {
		panic("program: MoveVector length mismatch")
	}
	for i := range src {
		b.Move(src[i], dst[i], laneShift)
	}
	return dst
}

func (b *Builder) checkAllocated(bit Bit) {
	if bit < 0 || int(bit) >= b.capacity || !b.inUse[bit] {
		panic(fmt.Sprintf("program: use of unallocated bit %d", bit))
	}
}

// Trace finalizes and returns the built trace.
func (b *Builder) Trace() *Trace { return b.trace }
