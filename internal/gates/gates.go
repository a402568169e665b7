// Package gates defines the Boolean logic gates that digital
// processing-in-memory (PIM) architectures execute directly inside a memory
// array.
//
// The paper (Resch et al., ISCA 2023, §2.2) abstracts all representative
// PIM designs (Pinatubo, MAGIC, Felix, CRAM) into a single operating
// semantic: a gate reads one or two input memory cells and writes one
// output memory cell. This package captures that semantic: every gate kind
// knows its arity, its truth table, and its cell read/write cost, which is
// what the endurance analysis is built on.
package gates

import "fmt"

// Kind identifies a logic gate type.
type Kind uint8

// The gate kinds supported by the simulated PIM architectures. COPY and NOT
// are single-input; the rest take two inputs. All produce one output bit
// written to a memory cell.
const (
	NOT Kind = iota
	COPY
	AND
	NAND
	OR
	NOR
	XOR
	XNOR
	numKinds
)

var kindNames = [numKinds]string{
	NOT:  "NOT",
	COPY: "COPY",
	AND:  "AND",
	NAND: "NAND",
	OR:   "OR",
	NOR:  "NOR",
	XOR:  "XOR",
	XNOR: "XNOR",
}

// String returns the conventional gate name.
func (k Kind) String() string {
	if k >= numKinds {
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Valid reports whether k is a defined gate kind.
func (k Kind) Valid() bool { return k < numKinds }

// Arity returns the number of input cells the gate reads (1 or 2).
func (k Kind) Arity() int {
	switch k {
	case NOT, COPY:
		return 1
	default:
		return 2
	}
}

// Eval computes the gate's output for the given inputs. Single-input gates
// ignore b. Eval panics on an invalid kind so that a corrupted trace is
// caught immediately rather than silently miscounted.
func (k Kind) Eval(a, b bool) bool {
	switch k {
	case NOT:
		return !a
	case COPY:
		return a
	case AND:
		return a && b
	case NAND:
		return !(a && b)
	case OR:
		return a || b
	case NOR:
		return !(a || b)
	case XOR:
		return a != b
	case XNOR:
		return a == b
	}
	panic(fmt.Sprintf("gates: invalid kind %d", uint8(k)))
}

// EvalWords computes the gate's output 64 lanes per word, one lane per
// bit (the bit-packed array simulator's kernel): it evaluates the gate
// over parallel word slices and merges each result into dst under the
// corresponding lane-mask word — dst[i] keeps its bits where mask[i] is
// 0, takes the gate's where it is 1, and all-ones words are stored
// directly. The gate-kind dispatch is hoisted out of the per-word loop
// (every kind reduces to one of four base word ops plus an optional
// inversion), so a whole row evaluates with one switch instead of one
// per word. Zero-mask words are skipped. Single-input gates ignore b;
// slices must share a length. Like Eval, it panics on an invalid kind.
func (k Kind) EvalWords(dst, a, b, mask []uint64) {
	var inv uint64
	switch k {
	case NOT, NAND, NOR, XNOR:
		inv = ^uint64(0)
	}
	switch k {
	case NOT, COPY:
		for i, m := range mask {
			if m != 0 {
				mergeWord(dst, i, a[i]^inv, m)
			}
		}
	case AND, NAND:
		for i, m := range mask {
			if m != 0 {
				mergeWord(dst, i, (a[i]&b[i])^inv, m)
			}
		}
	case OR, NOR:
		for i, m := range mask {
			if m != 0 {
				mergeWord(dst, i, (a[i]|b[i])^inv, m)
			}
		}
	case XOR, XNOR:
		for i, m := range mask {
			if m != 0 {
				mergeWord(dst, i, (a[i]^b[i])^inv, m)
			}
		}
	default:
		panic(fmt.Sprintf("gates: invalid kind %d", uint8(k)))
	}
}

// mergeWord lands a gate result word into dst[i] under a lane mask.
func mergeWord(dst []uint64, i int, v, m uint64) {
	if m == ^uint64(0) {
		dst[i] = v
		return
	}
	dst[i] = (dst[i] &^ m) | (v & m)
}

// CellReads returns the number of memory-cell read operations a single
// execution of the gate induces: one per input cell (§2.2 — current is
// passed through every input device).
func (k Kind) CellReads() int { return k.Arity() }

// CellWrites returns the number of memory-cell write operations a single
// execution of the gate induces on the output cell, excluding any
// architecture-specific output preset (see array.Config.PresetOutputs).
func (k Kind) CellWrites() int { return 1 }

// Kinds returns all defined gate kinds in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}
