// Package workloads compiles the paper's three benchmark kernels (§4) into
// PIM traces:
//
//   - embarrassingly parallel multiplication — the ideal case: every lane
//     computes independently, no communication;
//   - vector dot-product — the non-ideal case: a reduction funnels all
//     partial results into one lane, over-using low-address lanes;
//   - neural-network convolution — the middle ground: small groups of
//     lanes combine partial sums, one lane in each group doing extra work.
//
// Each benchmark carries a functional reference model so that the compiled
// trace can be verified end to end on the array simulator, under any
// load-balancing configuration.
package workloads

import (
	"fmt"
	"math/big"

	"pimendure/internal/program"
	"pimendure/internal/synth"
)

// Config sizes a benchmark. The paper's evaluation uses 1024 lanes × 1024
// rows, 32-bit operands for multiplication and dot-product, 8-bit for
// convolution, in the NAND basis on a column-parallel array.
type Config struct {
	// Lanes is the number of PIM lanes (columns).
	Lanes int
	// Rows is the number of physical bit addresses per lane. Programs may
	// use at most Rows−1 of them, reserving the spare row hardware
	// renaming needs.
	Rows int
	// Basis selects the gate decomposition; nil means synth.NAND.
	Basis synth.Basis
	// Alloc selects the workspace reuse policy. The zero value, NextFit,
	// matches the paper's simulator; LowestFirst is the adversarial
	// allocator used in the ablation study.
	Alloc program.AllocPolicy
}

func (c Config) basis() synth.Basis {
	if c.Basis == nil {
		return synth.NAND
	}
	return c.Basis
}

func (c Config) validate() error {
	if c.Lanes <= 0 || c.Rows <= 1 {
		return fmt.Errorf("workloads: invalid dimensions %dx%d", c.Lanes, c.Rows)
	}
	return nil
}

// DataFunc supplies the external value written into a write slot of a
// logical lane (matches array.DataFunc).
type DataFunc func(slot, lane int) bool

// OutFunc reads back what landed in a read slot of a logical lane
// (matches the array runner's Out accessor).
type OutFunc func(slot, lane int) bool

// Benchmark is a compiled workload plus its functional reference model.
type Benchmark struct {
	// Name is the label used throughout the paper: "multiplication",
	// "convolution", "dot-product".
	Name string
	// Description summarizes the kernel and its §4 parameters.
	Description string
	// Trace is the compiled per-iteration program. The paper assumes the
	// array runs it back to back: "as soon as it computes the final
	// results a new set of inputs is loaded and the process repeats".
	Trace *program.Trace
	// Check verifies one executed iteration: it recomputes the kernel
	// from the data the trace consumed and compares against what the
	// readout ops observed. It returns the first mismatch.
	Check func(data DataFunc, out OutFunc) error
}

// slotWord assembles a little-endian word from consecutive data slots.
func slotWord(data DataFunc, first, width, lane int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		if data(first+i, lane) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// outWord assembles a little-endian word from consecutive read slots.
func outWord(out OutFunc, first, width, lane int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		if out(first+i, lane) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// ParallelMult compiles the embarrassingly parallel multiplication
// benchmark: every lane loads two fresh bits-wide operands, multiplies them
// with a Dadda multiplier, and reads the 2·bits product out (§4: 32-bit
// operands, one multiplication per lane, all lanes utilized).
func ParallelMult(cfg Config, bits int) (bench *Benchmark, err error) {
	defer func() {
		if r := recover(); r != nil {
			bench, err = nil, fmt.Errorf("workloads: %v (increase Rows?)", r)
		}
	}()

	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if bits < 2 {
		return nil, fmt.Errorf("workloads: multiplication needs ≥2-bit operands, got %d", bits)
	}
	basis := cfg.basis()
	bld := program.NewBuilder(cfg.Lanes, cfg.Rows-1)
	bld.SetAllocPolicy(cfg.Alloc)
	a, aSlot := bld.WriteVector(bits)
	b, bSlot := bld.WriteVector(bits)
	prod := synth.Dadda(bld, basis, a, b)
	pSlot := bld.ReadVector(prod)
	bld.Free(a...)
	bld.Free(b...)
	bld.Free(prod...)

	tr := bld.Trace()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	lanes := cfg.Lanes
	return &Benchmark{
		Name: "multiplication",
		Description: fmt.Sprintf("embarrassingly parallel %d-bit multiplication, %d lanes, %s basis",
			bits, lanes, basis.Name()),
		Trace: tr,
		Check: func(data DataFunc, out OutFunc) error {
			for l := 0; l < lanes; l++ {
				x := slotWord(data, aSlot, bits, l)
				y := slotWord(data, bSlot, bits, l)
				got := outWord(out, pSlot, 2*bits, l)
				if got != x*y {
					return fmt.Errorf("lane %d: %d×%d read back %d, want %d", l, x, y, got, x*y)
				}
			}
			return nil
		},
	}, nil
}

// DotProduct compiles the vector dot-product benchmark: n element pairs
// multiply in parallel (one per lane), then a log₂(n)-level reduction
// repeatedly moves partial sums into lower-numbered lanes and adds them,
// leaving the scalar result in lane 0 (§4: 1024-element vectors of 32-bit
// operands). n must be a power of two no larger than the lane count.
func DotProduct(cfg Config, n, bits int) (bench *Benchmark, err error) {
	defer func() {
		if r := recover(); r != nil {
			bench, err = nil, fmt.Errorf("workloads: %v (increase Rows?)", r)
		}
	}()

	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("workloads: dot-product length %d must be a power of two ≥ 2", n)
	}
	if n > cfg.Lanes {
		return nil, fmt.Errorf("workloads: dot-product length %d exceeds %d lanes", n, cfg.Lanes)
	}
	if bits < 2 {
		return nil, fmt.Errorf("workloads: dot-product needs ≥2-bit operands, got %d", bits)
	}
	basis := cfg.basis()
	bld := program.NewBuilder(cfg.Lanes, cfg.Rows-1)
	bld.SetAllocPolicy(cfg.Alloc)
	active := program.RangeMask(cfg.Lanes, 0, n)
	bld.SetMask(active)
	a, aSlot := bld.WriteVector(bits)
	b, bSlot := bld.WriteVector(bits)
	cur := synth.Dadda(bld, basis, a, b)
	bld.Free(a...)
	bld.Free(b...)

	// Reduction: partial sums migrate toward lane 0 (§5: "dot-product
	// heavily uses columns at low addresses, as partial sums are
	// repeatedly moved to lower addresses").
	for stride := n / 2; stride >= 1; stride /= 2 {
		bld.SetMask(program.RangeMask(cfg.Lanes, 0, stride))
		moved := bld.MoveVector(cur, nil, stride)
		sum := synth.RippleCarryAdd(bld, basis, cur, moved)
		bld.Free(cur...)
		bld.Free(moved...)
		cur = sum
	}

	bld.SetMask(program.RangeMask(cfg.Lanes, 0, 1))
	width := len(cur) // 2·bits + log₂(n)
	sSlot := bld.ReadVector(cur)
	bld.Free(cur...)

	tr := bld.Trace()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &Benchmark{
		Name: "dot-product",
		Description: fmt.Sprintf("%d-element dot-product of %d-bit operands, %d lanes, %s basis",
			n, bits, cfg.Lanes, basis.Name()),
		Trace: tr,
		Check: func(data DataFunc, out OutFunc) error {
			want := new(big.Int)
			tmp := new(big.Int)
			for l := 0; l < n; l++ {
				x := slotWord(data, aSlot, bits, l)
				y := slotWord(data, bSlot, bits, l)
				tmp.SetUint64(x)
				want.Add(want, tmp.Mul(tmp, new(big.Int).SetUint64(y)))
			}
			got := new(big.Int)
			for i := 0; i < width; i++ {
				if out(sSlot+i, 0) {
					got.SetBit(got, i, 1)
				}
			}
			if got.Cmp(want) != 0 {
				return fmt.Errorf("dot-product read back %v, want %v", got, want)
			}
			return nil
		},
	}, nil
}

// ConvConfig parameterizes the convolution benchmark. The paper's instance
// (§4) applies a 4×3 filter to 16×16 neurons at 8-bit precision: each
// filter position occupies GroupLanes=4 lanes, each lane multiplying
// MultsPerLane=3 neuron/weight pairs sequentially and accumulating them;
// the partial sums of a group then collapse into its first lane, where the
// total is thresholded into a single binary output (the BNN-style
// comparison of [31]).
type ConvConfig struct {
	GroupLanes   int // filter rows: lanes per filter position
	MultsPerLane int // filter columns: sequential multiplications per lane
	Bits         int // operand precision
}

// DefaultConv returns the paper's 4×3 filter at 8-bit precision.
func DefaultConv() ConvConfig {
	return ConvConfig{GroupLanes: 4, MultsPerLane: 3, Bits: 8}
}

// Convolution compiles the convolution benchmark. cfg.Lanes must be a
// multiple of cc.GroupLanes.
func Convolution(cfg Config, cc ConvConfig) (bench *Benchmark, err error) {
	defer func() {
		if r := recover(); r != nil {
			bench, err = nil, fmt.Errorf("workloads: %v (increase Rows?)", r)
		}
	}()

	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cc.GroupLanes < 2 || cc.MultsPerLane < 1 || cc.Bits < 2 {
		return nil, fmt.Errorf("workloads: invalid convolution shape %+v", cc)
	}
	if cfg.Lanes%cc.GroupLanes != 0 {
		return nil, fmt.Errorf("workloads: %d lanes not divisible into groups of %d", cfg.Lanes, cc.GroupLanes)
	}
	basis := cfg.basis()
	bits := cc.Bits
	bld := program.NewBuilder(cfg.Lanes, cfg.Rows-1)
	bld.SetAllocPolicy(cfg.Alloc)

	// Per lane: load MultsPerLane neuron/weight pairs, multiply-and-
	// accumulate them sequentially.
	type operand struct{ n, w []program.Bit }
	ops := make([]operand, cc.MultsPerLane)
	nSlots := make([]int, cc.MultsPerLane)
	wSlots := make([]int, cc.MultsPerLane)
	for j := range ops {
		ops[j].n, nSlots[j] = bld.WriteVector(bits)
		ops[j].w, wSlots[j] = bld.WriteVector(bits)
	}
	acc := synth.Dadda(bld, basis, ops[0].n, ops[0].w)
	bld.Free(ops[0].n...)
	bld.Free(ops[0].w...)
	for j := 1; j < cc.MultsPerLane; j++ {
		p := synth.Dadda(bld, basis, ops[j].n, ops[j].w)
		bld.Free(ops[j].n...)
		bld.Free(ops[j].w...)
		sum := synth.AddUneven(bld, basis, acc, p)
		bld.Free(acc...)
		bld.Free(p...)
		acc = sum
	}

	// Collapse each group's partial sums into its first lane. Moves must
	// source the original per-lane partial-sum addresses: non-head lanes
	// never execute the accumulation gates below, so only those addresses
	// hold their data.
	heads := program.StrideMask(cfg.Lanes, cc.GroupLanes, 0)
	partial := acc
	run := partial
	for g := 1; g < cc.GroupLanes; g++ {
		bld.SetMask(heads)
		moved := bld.MoveVector(partial, nil, g)
		sum := synth.AddUneven(bld, basis, run, moved)
		if g > 1 { // run == partial on the first pass; partial is freed after the loop
			bld.Free(run...)
		}
		bld.Free(moved...)
		run = sum
	}
	bld.Free(partial...)
	acc = run

	// Threshold comparison in the head lanes (binary NN output, §4).
	width := len(acc)
	bld.SetMask(heads)
	thr, tSlot := bld.WriteVector(width)
	ge := synth.GreaterEqual(bld, basis, acc, thr)
	oSlot := bld.Read(ge)
	bld.Free(acc...)
	bld.Free(thr...)
	bld.Free(ge)

	tr := bld.Trace()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	lanes := cfg.Lanes
	return &Benchmark{
		Name: "convolution",
		Description: fmt.Sprintf("convolution, %d×%d filter positions per group, %d-bit, %d lanes, %s basis",
			cc.GroupLanes, cc.MultsPerLane, bits, lanes, basis.Name()),
		Trace: tr,
		Check: func(data DataFunc, out OutFunc) error {
			for head := 0; head < lanes; head += cc.GroupLanes {
				var total uint64
				for g := 0; g < cc.GroupLanes; g++ {
					l := head + g
					for j := 0; j < cc.MultsPerLane; j++ {
						total += slotWord(data, nSlots[j], bits, l) * slotWord(data, wSlots[j], bits, l)
					}
				}
				threshold := slotWord(data, tSlot, width, head)
				want := total >= threshold
				if got := out(oSlot, head); got != want {
					return fmt.Errorf("group at lane %d: sum %d vs threshold %d read %v, want %v",
						head, total, threshold, got, want)
				}
			}
			return nil
		},
	}, nil
}

// VectorAdd compiles an embarrassingly parallel addition benchmark (an
// extension beyond the paper's three kernels, exercising the operation
// Table 2 shows has the worst shuffle overhead): every lane adds two fresh
// bits-wide operands.
func VectorAdd(cfg Config, bits int) (bench *Benchmark, err error) {
	defer func() {
		if r := recover(); r != nil {
			bench, err = nil, fmt.Errorf("workloads: %v (increase Rows?)", r)
		}
	}()

	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if bits < 1 {
		return nil, fmt.Errorf("workloads: addition needs ≥1-bit operands, got %d", bits)
	}
	basis := cfg.basis()
	bld := program.NewBuilder(cfg.Lanes, cfg.Rows-1)
	bld.SetAllocPolicy(cfg.Alloc)
	a, aSlot := bld.WriteVector(bits)
	b, bSlot := bld.WriteVector(bits)
	sum := synth.RippleCarryAdd(bld, basis, a, b)
	sSlot := bld.ReadVector(sum)
	bld.Free(a...)
	bld.Free(b...)
	bld.Free(sum...)

	tr := bld.Trace()
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	lanes := cfg.Lanes
	return &Benchmark{
		Name:        "vector-add",
		Description: fmt.Sprintf("parallel %d-bit addition, %d lanes, %s basis", bits, lanes, basis.Name()),
		Trace:       tr,
		Check: func(data DataFunc, out OutFunc) error {
			for l := 0; l < lanes; l++ {
				x := slotWord(data, aSlot, bits, l)
				y := slotWord(data, bSlot, bits, l)
				if got := outWord(out, sSlot, bits+1, l); got != x+y {
					return fmt.Errorf("lane %d: %d+%d read back %d", l, x, y, got)
				}
			}
			return nil
		},
	}, nil
}

// PaperSuite compiles the paper's three benchmarks — multiplication,
// convolution and dot-product, in that order — at the kernel table's §4
// defaults (see Params) under the given array configuration.
func PaperSuite(cfg Config) ([]*Benchmark, error) {
	var out []*Benchmark
	for _, name := range []string{"mult", "conv", "dot"} {
		b, _, err := Named(cfg, name, Params{})
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}
