// Package traceio serializes compiled PIM traces and accumulated write
// distributions to a versioned JSON format, so that compilation,
// simulation and rendering can run as separate steps (and experiment
// outputs can be archived and re-plotted without re-simulation).
package traceio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"pimendure/internal/core"
	"pimendure/internal/gates"
	"pimendure/internal/program"
)

// FormatVersion identifies the on-disk schema.
const FormatVersion = 1

// opRecord is the compact per-op encoding:
// [kind, gate, out, in0, in1, mask, laneShift, data].
type opRecord [8]int32

// maxLanes bounds a decoded trace's lane count at 64 times the paper's
// 1024-lane array. Every mask costs a Lanes-bit bitmap, so the bound
// keeps a corrupt header from making the decoder allocate and fill
// gigabytes.
const maxLanes = 1 << 16

type traceJSON struct {
	Version    int        `json:"version"`
	Lanes      int        `json:"lanes"`
	LaneBits   int        `json:"laneBits"`
	WriteSlots int        `json:"writeSlots"`
	ReadSlots  int        `json:"readSlots"`
	Masks      []maskJSON `json:"masks"`
	Ops        []opRecord `json:"ops"`
}

type maskJSON struct {
	Lanes int   `json:"lanes"`
	Full  bool  `json:"full,omitempty"`
	Set   []int `json:"set,omitempty"` // set lanes, ascending, when not full
}

// WriteTrace encodes a trace.
func WriteTrace(w io.Writer, tr *program.Trace) error {
	out := traceJSON{
		Version:    FormatVersion,
		Lanes:      tr.Lanes,
		LaneBits:   tr.LaneBits,
		WriteSlots: tr.WriteSlots,
		ReadSlots:  tr.ReadSlots,
	}
	for _, m := range tr.Masks {
		mj := maskJSON{Lanes: m.Len(), Full: m.Full()}
		if !mj.Full {
			mj.Set = m.Lanes()
		}
		out.Masks = append(out.Masks, mj)
	}
	for _, op := range tr.Ops {
		out.Ops = append(out.Ops, encodeOp(op))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func encodeOp(op program.Op) opRecord {
	return opRecord{
		int32(op.Kind), int32(op.Gate), int32(op.Out), int32(op.In0), int32(op.In1),
		int32(op.Mask), op.LaneShift, op.Data,
	}
}

// ReadTrace decodes and validates a trace.
func ReadTrace(r io.Reader) (*program.Trace, error) {
	var in traceJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("traceio: unsupported trace format version %d (want %d)", in.Version, FormatVersion)
	}
	if in.Lanes <= 0 || in.Lanes > maxLanes {
		return nil, fmt.Errorf("traceio: lane count %d outside 1..%d", in.Lanes, maxLanes)
	}
	if in.WriteSlots < 0 || in.ReadSlots < 0 {
		return nil, fmt.Errorf("traceio: negative slot count (%d write, %d read)", in.WriteSlots, in.ReadSlots)
	}
	tr := program.NewTrace(in.Lanes)
	tr.WriteSlots = in.WriteSlots
	tr.ReadSlots = in.ReadSlots
	for i, mj := range in.Masks {
		if mj.Lanes != in.Lanes {
			return nil, fmt.Errorf("traceio: mask %d spans %d lanes, trace has %d", i, mj.Lanes, in.Lanes)
		}
		var m *program.Mask
		if mj.Full {
			m = program.FullMask(in.Lanes)
		} else {
			m = program.NewMask(in.Lanes)
			for _, l := range mj.Set {
				if l < 0 || l >= in.Lanes {
					return nil, fmt.Errorf("traceio: mask %d has lane %d out of range", i, l)
				}
				m.Set(l)
			}
		}
		if got := tr.AddMask(m); int(got) != i {
			return nil, fmt.Errorf("traceio: duplicate mask %d collapses to %d; file corrupt", i, got)
		}
	}
	for i, rec := range in.Ops {
		// Kind and gate are uint8 in memory: range-check them before the
		// conversion, which would wrap silently.
		if rec[0] < 0 || rec[0] > int32(program.OpMove) {
			return nil, fmt.Errorf("traceio: op %d has unknown kind %d", i, rec[0])
		}
		if rec[1] < 0 || rec[1] > math.MaxUint8 {
			return nil, fmt.Errorf("traceio: op %d has out-of-range gate %d", i, rec[1])
		}
		op := program.Op{
			Kind:      program.OpKind(rec[0]),
			Gate:      gates.Kind(rec[1]),
			Out:       program.Bit(rec[2]),
			In0:       program.Bit(rec[3]),
			In1:       program.Bit(rec[4]),
			Mask:      program.MaskID(rec[5]),
			LaneShift: rec[6],
			Data:      rec[7],
		}
		tr.Append(op)
	}
	if tr.LaneBits < in.LaneBits {
		tr.LaneBits = in.LaneBits
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	return tr, nil
}

type distJSON struct {
	Version    int      `json:"version"`
	Rows       int      `json:"rows"`
	Lanes      int      `json:"lanes"`
	Iterations int      `json:"iterations"`
	Steps      int      `json:"stepsPerIteration"`
	Counts     []uint64 `json:"counts"`
}

// WriteDist encodes a write distribution.
func WriteDist(w io.Writer, d *core.WriteDist) error {
	return json.NewEncoder(w).Encode(distJSON{
		Version:    FormatVersion,
		Rows:       d.Rows,
		Lanes:      d.Lanes,
		Iterations: d.Iterations,
		Steps:      d.StepsPerIteration,
		Counts:     d.Counts,
	})
}

// ReadDist decodes and validates a write distribution.
func ReadDist(r io.Reader) (*core.WriteDist, error) {
	var in distJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("traceio: %w", err)
	}
	if in.Version != FormatVersion {
		return nil, fmt.Errorf("traceio: unsupported distribution format version %d (want %d)", in.Version, FormatVersion)
	}
	if in.Rows <= 0 || in.Lanes <= 0 {
		return nil, fmt.Errorf("traceio: non-positive dimensions %dx%d", in.Rows, in.Lanes)
	}
	if len(in.Counts) != in.Rows*in.Lanes {
		return nil, fmt.Errorf("traceio: %d counts do not fill %dx%d", len(in.Counts), in.Rows, in.Lanes)
	}
	d := core.NewWriteDist(in.Rows, in.Lanes)
	copy(d.Counts, in.Counts)
	d.Iterations = in.Iterations
	d.StepsPerIteration = in.Steps
	return d, nil
}
