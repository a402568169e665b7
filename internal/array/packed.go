package array

// This file is the word-parallel execution path behind NewRunner. Two
// structural facts of the simulated machine make it possible:
//
//  1. PIM ops are SIMD across lanes (§2.2): one gate executes the same
//     (in0, in1) → out cell addresses in every masked lane. With the array
//     state bit-packed 64 lanes per uint64 word (see Array), a gate over
//     all lanes of a word is one truth-table expression on three words
//     merged under the mask's lane-word bitmap, evaluated through the
//     fused per-gate kernel gates.Kind.EvalWords.
//
//  2. Access counts are rank-1 per op: every active lane of an op receives
//     the same per-cell increment at the same physical rows. Counting can
//     therefore be deferred into tiny histograms indexed by
//     (mask, physical row) and expanded over the mask's physical lane list
//     only when a counter accessor actually needs per-cell totals — the
//     same trick internal/core's wear engine uses at the epoch level,
//     applied here inside the functional simulator.
//
// OpMove is the one op whose reads land in *shifted* source lanes — a
// different lane set than its mask — so it stays on the scalar per-cell
// path with immediate counters (moves are a vanishing fraction of trace
// ops). Deferred and immediate counts are both pure additions, so the mix
// is exact regardless of flush timing.

import (
	"pimendure/internal/mapping"
	"pimendure/internal/program"
)

// packedState carries the word-parallel runner's per-mask lane bitmaps and
// deferred access-count histograms.
type packedState struct {
	// physMask is, per trace mask, the bitmap of *physical* lanes (the
	// mask's logical lanes pushed through the between-lane permutation),
	// packed in the array's lane-word layout.
	physMask [][]uint64
	// physLanes lists the same physical lanes explicitly, for expanding
	// histograms into per-cell counters at flush time.
	physLanes [][]int32
	// wHist and rHist accumulate deferred write/read counts, indexed
	// [maskID*BitsPerLane + physicalRow].
	wHist []uint64
	rHist []uint64
}

func newPackedState(arr *Array, tr *program.Trace, between *mapping.Perm) *packedState {
	pk := &packedState{
		wHist: make([]uint64, len(tr.Masks)*arr.cfg.BitsPerLane),
		rHist: make([]uint64, len(tr.Masks)*arr.cfg.BitsPerLane),
	}
	pk.rebuildLanes(tr, between)
	return pk
}

// rebuildLanes recomputes the physical-lane bitmaps and lists for a
// between-lane permutation. Callers must flush deferred counts under the
// old permutation first (Runner.Remap does).
func (pk *packedState) rebuildLanes(tr *program.Trace, between *mapping.Perm) {
	words := (tr.Lanes + 63) / 64
	pk.physMask = make([][]uint64, len(tr.Masks))
	pk.physLanes = make([][]int32, len(tr.Masks))
	for i, m := range tr.Masks {
		bitmap := make([]uint64, words)
		lanes := make([]int32, 0, m.Count())
		m.ForEach(func(l int) {
			pl := between.Apply(l)
			bitmap[pl>>6] |= 1 << uint(pl&63)
			lanes = append(lanes, int32(pl))
		})
		pk.physMask[i] = bitmap
		pk.physLanes[i] = lanes
	}
}

// flushCounts expands the deferred histograms into the array's per-cell
// counters and clears them. Installed on the array as its flush hook.
func (r *Runner) flushCounts() {
	pk := r.pk
	bits := r.arr.cfg.BitsPerLane
	lanes := r.arr.cfg.Lanes
	for m, pls := range pk.physLanes {
		base := m * bits
		for row := 0; row < bits; row++ {
			w, rd := pk.wHist[base+row], pk.rHist[base+row]
			if w == 0 && rd == 0 {
				continue
			}
			pk.wHist[base+row], pk.rHist[base+row] = 0, 0
			cell := row * lanes
			for _, pl := range pls {
				r.arr.writes[cell+int(pl)] += w
				r.arr.reads[cell+int(pl)] += rd
			}
		}
	}
}

// runPackedIteration is RunIteration's word-parallel body. It issues the
// exact same mapper calls in the exact same order as the scalar path —
// renameForWrite once per writing op — so hardware renaming state evolves
// bit-identically. Each gate evaluates eagerly through the fused
// per-gate kernel gates.Kind.EvalWords, which hoists the truth-table
// dispatch out of the word loop.
func (r *Runner) runPackedIteration() {
	tr := r.trace
	arr := r.arr
	pk := r.pk
	bits := arr.cfg.BitsPerLane
	preset := arr.cfg.PresetOutputs
	for _, op := range tr.Ops {
		mid := int(op.Mask)
		mask := tr.Mask(op.Mask)
		switch op.Kind {
		case program.OpGate:
			in0 := r.mapper.BitAddr(op.In0)
			in1 := in0 // unary gates ignore the second operand word
			binary := op.Gate.Arity() == 2
			if binary {
				in1 = r.mapper.BitAddr(op.In1)
			}
			out := r.mapper.renameForWrite(op.Out, mask.Full())
			base := mid * bits
			pk.rHist[base+in0]++
			if binary {
				pk.rHist[base+in1]++
			}
			if preset {
				// Preset writes the output cell twice (preset +
				// conditional switch); state-wise the gate value wins,
				// so only the count differs from the plain write.
				pk.wHist[base+out] += 2
			} else {
				pk.wHist[base+out]++
			}
			op.Gate.EvalWords(arr.row(out), arr.row(in0), arr.row(in1), pk.physMask[mid])
		case program.OpWrite:
			phys := r.mapper.renameForWrite(op.Out, mask.Full())
			pk.wHist[mid*bits+phys]++
			slot := int(op.Data)
			mask.ForEach(func(l int) {
				arr.setBit(phys, r.mapper.Lane(l), r.data(slot, l))
			})
		case program.OpRead:
			src := r.mapper.BitAddr(op.In0)
			pk.rHist[mid*bits+src]++
			mask.ForEach(func(l int) {
				r.out[op.Data][l] = arr.bit(src, r.mapper.Lane(l))
			})
		case program.OpMove:
			// Scalar with immediate counters: the read lanes are the
			// mask's lanes shifted, not the mask's physical lane set.
			src := r.mapper.BitAddr(op.In0)
			dst := r.mapper.renameForWrite(op.Out, mask.Full())
			shift := int(op.LaneShift)
			mask.ForEach(func(l int) {
				v := arr.read(src, r.mapper.Lane(l+shift))
				arr.write(dst, r.mapper.Lane(l), v)
			})
		}
	}
}
