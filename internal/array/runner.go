package array

import (
	"fmt"

	"pimendure/internal/mapping"
	"pimendure/internal/program"
)

// Mapper is the composed logical-to-physical translation applied during
// execution: logical bit → Within permutation → (optional) hardware
// renamer → physical bit address, and logical lane → Between permutation →
// physical lane (§3.2). Hw sits closest to the cells: it renames the
// software-visible addresses the compiler produced.
type Mapper struct {
	Within  *mapping.Perm      // logical bit address -> architectural bit address
	Between *mapping.Perm      // logical lane -> physical lane
	Hw      *mapping.HwRenamer // optional architectural -> physical renaming
}

// IdentityMapper returns a pass-through mapper for an array.
func IdentityMapper(bitsPerLane, lanes int) Mapper {
	return Mapper{Within: mapping.Identity(bitsPerLane), Between: mapping.Identity(lanes)}
}

// BitAddr translates a logical bit address for a read.
func (m Mapper) BitAddr(b program.Bit) int {
	arch := m.Within.Apply(int(b))
	if m.Hw != nil {
		return m.Hw.Lookup(arch)
	}
	return arch
}

// Lane translates a logical lane index.
func (m Mapper) Lane(l int) int { return m.Between.Apply(l) }

// renameForWrite applies hardware renaming (when enabled and the op spans
// all lanes) and returns the physical bit address to write.
func (m Mapper) renameForWrite(b program.Bit, fullMask bool) int {
	arch := m.Within.Apply(int(b))
	if m.Hw == nil {
		return arch
	}
	if fullMask {
		return m.Hw.RenameOnWrite(arch)
	}
	return m.Hw.Lookup(arch)
}

// DataFunc supplies operand values at execution time: the value external
// hardware writes into write-slot slot of logical lane lane.
type DataFunc func(slot, lane int) bool

// Runner executes a trace on an array under a mapper, iteration after
// iteration. Read-slot results of the latest iteration are available via
// Out.
//
// Runners come in two flavours with bit-identical observable behaviour:
// the default word-parallel runner (NewRunner) evaluates gates 64 lanes at
// a time over the array's packed state and defers access counting into
// per-(mask, physical row) histograms, while the scalar runner
// (NewScalarRunner) walks lanes one cell at a time with immediate
// counters. The scalar path is the executable specification the packed
// path is tested against, and the baseline its speedup is measured from.
type Runner struct {
	arr    *Array
	trace  *program.Trace
	mapper Mapper
	data   DataFunc
	out    [][]bool     // [readSlot][logical lane]
	pk     *packedState // nil on scalar runners
}

// validateMapper checks that a mapper's dimensions agree with the trace
// and the array. It is shared by runner construction and Remap (which must
// not construct a throwaway runner: runners install counter-flush hooks on
// the array).
func validateMapper(cfg Config, tr *program.Trace, m Mapper) error {
	if tr.Lanes != cfg.Lanes {
		return fmt.Errorf("array: trace spans %d lanes, array has %d", tr.Lanes, cfg.Lanes)
	}
	if m.Between.Len() != cfg.Lanes {
		return fmt.Errorf("array: between-lane perm over %d lanes, array has %d", m.Between.Len(), cfg.Lanes)
	}
	archBits := cfg.BitsPerLane
	if m.Hw != nil {
		if m.Hw.ArchRows() != cfg.BitsPerLane-1 {
			return fmt.Errorf("array: Hw renamer over %d+1 rows, array has %d", m.Hw.ArchRows(), cfg.BitsPerLane)
		}
		archBits = cfg.BitsPerLane - 1
	}
	if m.Within.Len() != archBits {
		return fmt.Errorf("array: within-lane perm over %d addresses, want %d", m.Within.Len(), archBits)
	}
	if tr.LaneBits > archBits {
		return fmt.Errorf("array: trace uses %d bit addresses, only %d available", tr.LaneBits, archBits)
	}
	return nil
}

func newRunner(arr *Array, tr *program.Trace, m Mapper, data DataFunc) (*Runner, error) {
	if err := validateMapper(arr.Config(), tr, m); err != nil {
		return nil, err
	}
	if data == nil {
		data = func(int, int) bool { return false }
	}
	out := make([][]bool, tr.ReadSlots)
	for i := range out {
		out[i] = make([]bool, tr.Lanes)
	}
	return &Runner{arr: arr, trace: tr, mapper: m, data: data, out: out}, nil
}

// NewRunner validates dimensions and binds trace, array, mapper and data.
// The returned runner uses the word-parallel execution path and installs a
// flush hook on the array so its counter accessors transparently include
// counts the runner has deferred.
func NewRunner(arr *Array, tr *program.Trace, m Mapper, data DataFunc) (*Runner, error) {
	r, err := newRunner(arr, tr, m, data)
	if err != nil {
		return nil, err
	}
	r.pk = newPackedState(arr, tr, m.Between)
	prev := arr.flush
	arr.flush = func() {
		if prev != nil {
			prev()
		}
		r.flushCounts()
	}
	return r, nil
}

// NewScalarRunner is NewRunner's cell-at-a-time reference twin: every
// access updates the per-cell counters immediately and no word-level
// shortcuts are taken. It is retained as the ground truth for the packed
// path's bit-identity tests and as the baseline for its benchmarks.
func NewScalarRunner(arr *Array, tr *program.Trace, m Mapper, data DataFunc) (*Runner, error) {
	return newRunner(arr, tr, m, data)
}

// Array returns the underlying array.
func (r *Runner) Array() *Array { return r.arr }

// Mapper returns the current mapper (including live Hw state).
func (r *Runner) Mapper() Mapper { return r.mapper }

// Out returns the value the latest iteration read into a read slot from a
// logical lane.
func (r *Runner) Out(slot, lane int) bool { return r.out[slot][lane] }

// OutWord assembles an unsigned integer from consecutive read slots
// (LSB-first) of one logical lane.
func (r *Runner) OutWord(firstSlot, width, lane int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		if r.out[firstSlot+i][lane] {
			v |= 1 << uint(i)
		}
	}
	return v
}

// RunIteration executes the trace once, updating cell state, access
// counters, hardware renaming state and read-slot outputs.
func (r *Runner) RunIteration() {
	if r.pk != nil {
		r.runPackedIteration()
		return
	}
	tr := r.trace
	for _, op := range tr.Ops {
		mask := tr.Mask(op.Mask)
		switch op.Kind {
		case program.OpGate:
			r.execGate(op, mask)
		case program.OpWrite:
			phys := r.mapper.renameForWrite(op.Out, mask.Full())
			mask.ForEach(func(l int) {
				r.arr.write(phys, r.mapper.Lane(l), r.data(int(op.Data), l))
			})
		case program.OpRead:
			src := r.mapper.BitAddr(op.In0)
			mask.ForEach(func(l int) {
				r.out[op.Data][l] = r.arr.read(src, r.mapper.Lane(l))
			})
		case program.OpMove:
			src := r.mapper.BitAddr(op.In0)
			// Inter-lane moves are read-then-write; the destination
			// mask is partial in every workload, so Hw renaming
			// never applies (and must not: it would desynchronize
			// inactive lanes).
			dst := r.mapper.renameForWrite(op.Out, mask.Full())
			shift := int(op.LaneShift)
			mask.ForEach(func(l int) {
				v := r.arr.read(src, r.mapper.Lane(l+shift))
				r.arr.write(dst, r.mapper.Lane(l), v)
			})
		}
	}
}

func (r *Runner) execGate(op program.Op, mask *program.Mask) {
	in0 := r.mapper.BitAddr(op.In0)
	in1 := -1
	binary := op.Gate.Arity() == 2
	if binary {
		in1 = r.mapper.BitAddr(op.In1)
	}
	out := r.mapper.renameForWrite(op.Out, mask.Full())
	preset := r.arr.Config().PresetOutputs
	mask.ForEach(func(l int) {
		pl := r.mapper.Lane(l)
		a := r.arr.read(in0, pl)
		b := false
		if binary {
			b = r.arr.read(in1, pl)
		}
		if preset {
			// CRAM-style architectures write the output cell to a
			// known state before the gate fires (§4).
			r.arr.write(out, pl, false)
		}
		r.arr.write(out, pl, op.Gate.Eval(a, b))
	})
}

// Remap installs a new software mapping, migrating logical state to its new
// physical locations without counting accesses — the paper's oracular
// recompile (§4: re-mapping is idealized to isolate the upper limit of its
// benefit). The hardware renamer, if present, is reset: recompilation
// re-baselines the layout.
func (r *Runner) Remap(within, between *mapping.Perm) error {
	tr := r.trace
	// Deferred counts refer to the outgoing between-lane permutation's
	// physical lane sets; materialize them before those sets change.
	if r.pk != nil {
		r.flushCounts()
	}
	// Snapshot logical contents under the old mapping.
	snap := make([]bool, tr.LaneBits*tr.Lanes)
	for b := 0; b < tr.LaneBits; b++ {
		pb := r.mapper.BitAddr(program.Bit(b))
		for l := 0; l < tr.Lanes; l++ {
			snap[b*tr.Lanes+l] = r.arr.Peek(pb, r.mapper.Lane(l))
		}
	}
	next := Mapper{Within: within, Between: between, Hw: r.mapper.Hw}
	if next.Hw != nil {
		next.Hw.Reset()
	}
	// Validate the new maps against the array before installing.
	if err := validateMapper(r.arr.Config(), tr, next); err != nil {
		return err
	}
	r.mapper = next
	if r.pk != nil {
		r.pk.rebuildLanes(tr, between)
	}
	// Restore logical contents under the new mapping.
	for b := 0; b < tr.LaneBits; b++ {
		pb := r.mapper.BitAddr(program.Bit(b))
		for l := 0; l < tr.Lanes; l++ {
			r.arr.Poke(pb, r.mapper.Lane(l), snap[b*tr.Lanes+l])
		}
	}
	return nil
}
