// Package array is a bit-accurate functional simulator of a nonvolatile
// PIM array. It executes compiled traces (package program) under a
// logical-to-physical mapping (package mapping), computing real Boolean
// values — so synthesized circuits are verifiable end to end — while
// counting every cell read and write, which is the quantity the paper's
// endurance analysis is built on (§4: "The simulation is instruction-level
// accurate, and each write to each memory cell is counted").
package array

import "fmt"

// Config sizes and parameterizes an array.
type Config struct {
	// BitsPerLane is the number of physical bit addresses in each lane
	// (rows, in a column-parallel array).
	BitsPerLane int
	// Lanes is the number of lanes (columns, in a column-parallel
	// array). The paper's evaluation uses 1024×1024.
	Lanes int
	// PresetOutputs models CRAM-style architectures that must write the
	// output cell to a known state before each gate (§4); it doubles the
	// write count of gate outputs and adds one step of latency per gate.
	PresetOutputs bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BitsPerLane <= 0 || c.Lanes <= 0 {
		return fmt.Errorf("array: dimensions must be positive, got %dx%d", c.BitsPerLane, c.Lanes)
	}
	return nil
}

// Array holds the physical cell state and per-cell access counters. Cells
// are addressed as (bit, lane); counters are indexed bit*Lanes + lane.
// Cell state is bit-packed: each bit address stores its lanes as a run of
// uint64 words (64 lanes per word), which is what lets the packed runner
// evaluate a gate across all lanes of a mask with a handful of word ops.
type Array struct {
	cfg    Config
	words  int      // words per bit address: ceil(Lanes/64)
	state  []uint64 // [bit*words + lane/64], lane bit = lane%64
	writes []uint64
	reads  []uint64
	// flush drains counts a packed runner has deferred into writes/reads;
	// installed by NewRunner, nil when only the scalar path touches the
	// array.
	flush func()
}

// New allocates an array with all cells zero and counters cleared.
func New(cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.BitsPerLane * cfg.Lanes
	words := (cfg.Lanes + 63) / 64
	return &Array{
		cfg:    cfg,
		words:  words,
		state:  make([]uint64, cfg.BitsPerLane*words),
		writes: make([]uint64, n),
		reads:  make([]uint64, n),
	}
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

func (a *Array) idx(bit, lane int) int {
	if bit < 0 || bit >= a.cfg.BitsPerLane || lane < 0 || lane >= a.cfg.Lanes {
		panic(fmt.Sprintf("array: cell (%d,%d) outside %dx%d", bit, lane, a.cfg.BitsPerLane, a.cfg.Lanes))
	}
	return bit*a.cfg.Lanes + lane
}

// bit returns a cell's value from the packed state (no bounds check
// beyond the slice's own).
func (a *Array) bit(bit, lane int) bool {
	return a.state[bit*a.words+lane>>6]&(1<<uint(lane&63)) != 0
}

// setBit programs a cell's value in the packed state.
func (a *Array) setBit(bit, lane int, v bool) {
	w := &a.state[bit*a.words+lane>>6]
	m := uint64(1) << uint(lane&63)
	if v {
		*w |= m
	} else {
		*w &^= m
	}
}

// row returns the packed lane words of one bit address.
func (a *Array) row(bit int) []uint64 {
	return a.state[bit*a.words : (bit+1)*a.words]
}

// read senses a cell, counting the access.
func (a *Array) read(bit, lane int) bool {
	i := a.idx(bit, lane)
	a.reads[i]++
	return a.bit(bit, lane)
}

// write programs a cell, counting the access.
func (a *Array) write(bit, lane int, v bool) {
	i := a.idx(bit, lane)
	a.writes[i]++
	a.setBit(bit, lane, v)
}

// Peek returns a cell's value without counting an access (test/diagnostic
// use and oracular data migration).
func (a *Array) Peek(bit, lane int) bool {
	a.idx(bit, lane)
	return a.bit(bit, lane)
}

// Poke sets a cell's value without counting an access (oracular data
// migration at recompile boundaries, §4's zero-overhead re-mapping
// assumption).
func (a *Array) Poke(bit, lane int, v bool) {
	a.idx(bit, lane)
	a.setBit(bit, lane, v)
}

// Flush materializes any access counts a packed runner has deferred, so
// the per-cell counters are exact. Counter accessors call it implicitly;
// it is exported for callers that read the counter slices around custom
// checkpoints.
func (a *Array) Flush() {
	if a.flush != nil {
		a.flush()
	}
}

// Writes returns the write count of one cell.
func (a *Array) Writes(bit, lane int) uint64 {
	a.Flush()
	return a.writes[a.idx(bit, lane)]
}

// Reads returns the read count of one cell.
func (a *Array) Reads(bit, lane int) uint64 {
	a.Flush()
	return a.reads[a.idx(bit, lane)]
}

// WriteCounts returns the full write-count matrix indexed
// [bit*Lanes+lane]. The returned slice is a copy.
func (a *Array) WriteCounts() []uint64 {
	a.Flush()
	out := make([]uint64, len(a.writes))
	copy(out, a.writes)
	return out
}

// ReadCounts returns the full read-count matrix as a copy.
func (a *Array) ReadCounts() []uint64 {
	a.Flush()
	out := make([]uint64, len(a.reads))
	copy(out, a.reads)
	return out
}

// WriteCountsInto copies the full write-count matrix into dst, which must
// hold BitsPerLane×Lanes elements. It is WriteCounts for callers that own
// a reusable buffer (the wear engine's brute-force reference lands counts
// straight into an arena-drawn distribution), avoiding the intermediate
// copy WriteCounts allocates.
func (a *Array) WriteCountsInto(dst []uint64) {
	if len(dst) != len(a.writes) {
		panic(fmt.Sprintf("array: count buffer holds %d cells, want %d", len(dst), len(a.writes)))
	}
	a.Flush()
	copy(dst, a.writes)
}

// TotalWrites sums write counts over all cells.
func (a *Array) TotalWrites() uint64 {
	a.Flush()
	var n uint64
	for _, w := range a.writes {
		n += w
	}
	return n
}

// TotalReads sums read counts over all cells.
func (a *Array) TotalReads() uint64 {
	a.Flush()
	var n uint64
	for _, r := range a.reads {
		n += r
	}
	return n
}

// MaxWrites returns the hottest cell's write count — the denominator of the
// paper's lifetime equation (Eq. 4).
func (a *Array) MaxWrites() uint64 {
	a.Flush()
	var m uint64
	for _, w := range a.writes {
		if w > m {
			m = w
		}
	}
	return m
}

// ResetCounters clears access counters but keeps cell state. Deferred
// packed-runner counts are discarded along with the materialized ones.
func (a *Array) ResetCounters() {
	a.Flush()
	for i := range a.writes {
		a.writes[i] = 0
		a.reads[i] = 0
	}
}
