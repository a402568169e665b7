package workloads

import (
	"fmt"
	"math/bits"
	"strings"
)

// Params are the optional parameters of a kernel compiled by name (see
// Named). A field that is zero (or negative) takes the kernel's §4
// default. Resolve and Named report the values the kernel actually uses
// and zero the fields it ignores, so two spellings of the same kernel
// resolve to equal Params.
type Params struct {
	// Bits is the operand precision: 32, except 8 for convolution. The
	// BNN layer ignores it.
	Bits int
	// N is the dot-product length: the largest power of two that fits
	// the lane count.
	N int
	// GroupLanes × MultsPerLane shape the convolution (DefaultConv: 4×3).
	GroupLanes, MultsPerLane int
	// Synapses sizes the BNN neuron: 64.
	Synapses int
}

// kernel is one row of the kernel table: its names (canonical short name
// first, then the aliases the job server accepts), its defaults, and its
// constructor.
type kernel struct {
	names   []string
	resolve func(p Params, lanes int) Params
	compile func(cfg Config, p Params) (*Benchmark, error)
}

// kernels is the one place a kernel name turns into a compiled benchmark
// and the one copy of the §4 defaults.
var kernels = []kernel{
	{
		names:   []string{"mult", "multiplication"},
		resolve: func(p Params, _ int) Params { return Params{Bits: orDefault(p.Bits, 32)} },
		compile: func(cfg Config, p Params) (*Benchmark, error) { return ParallelMult(cfg, p.Bits) },
	},
	{
		names: []string{"dot", "dot-product", "dotproduct"},
		resolve: func(p Params, lanes int) Params {
			return Params{Bits: orDefault(p.Bits, 32), N: orDefault(p.N, floorPow2(lanes))}
		},
		compile: func(cfg Config, p Params) (*Benchmark, error) { return DotProduct(cfg, p.N, p.Bits) },
	},
	{
		names: []string{"conv", "convolution"},
		resolve: func(p Params, _ int) Params {
			d := DefaultConv()
			return Params{
				Bits:         orDefault(p.Bits, d.Bits),
				GroupLanes:   orDefault(p.GroupLanes, d.GroupLanes),
				MultsPerLane: orDefault(p.MultsPerLane, d.MultsPerLane),
			}
		},
		compile: func(cfg Config, p Params) (*Benchmark, error) {
			return Convolution(cfg, ConvConfig{GroupLanes: p.GroupLanes, MultsPerLane: p.MultsPerLane, Bits: p.Bits})
		},
	},
	{
		names:   []string{"add", "vadd", "vector-add", "vectoradd"},
		resolve: func(p Params, _ int) Params { return Params{Bits: orDefault(p.Bits, 32)} },
		compile: func(cfg Config, p Params) (*Benchmark, error) { return VectorAdd(cfg, p.Bits) },
	},
	{
		names:   []string{"bnn"},
		resolve: func(p Params, _ int) Params { return Params{Synapses: orDefault(p.Synapses, 64)} },
		compile: func(cfg Config, p Params) (*Benchmark, error) { return BNNLayer(cfg, p.Synapses) },
	},
}

// orDefault returns v, or def when v is not positive.
func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// floorPow2 returns the largest power of two ≤ n (1 when n < 2).
func floorPow2(n int) int {
	if n < 2 {
		return 1
	}
	return 1 << (bits.Len(uint(n)) - 1)
}

// KernelNames lists the canonical kernel names in table order.
func KernelNames() []string {
	out := make([]string, len(kernels))
	for i, k := range kernels {
		out[i] = k.names[0]
	}
	return out
}

func lookup(name string) (*kernel, error) {
	for i := range kernels {
		for _, n := range kernels[i].names {
			if strings.EqualFold(n, name) {
				return &kernels[i], nil
			}
		}
	}
	want := strings.Join(KernelNames(), ", ")
	if name == "" {
		return nil, fmt.Errorf("workloads: missing kernel name (want %s)", want)
	}
	return nil, fmt.Errorf("workloads: unknown kernel %q (want %s)", name, want)
}

// Resolve looks a kernel name up — case-insensitively, aliases included —
// and returns its canonical name and the parameters it compiles with on a
// lanes-wide array, without compiling it.
func Resolve(name string, lanes int, p Params) (string, Params, error) {
	k, err := lookup(name)
	if err != nil {
		return "", Params{}, err
	}
	return k.names[0], k.resolve(p, lanes), nil
}

// Named compiles a kernel by name under cfg and returns it with the
// parameters it was compiled with (see Resolve).
func Named(cfg Config, name string, p Params) (*Benchmark, Params, error) {
	k, err := lookup(name)
	if err != nil {
		return nil, Params{}, err
	}
	p = k.resolve(p, cfg.Lanes)
	b, err := k.compile(cfg, p)
	if err != nil {
		return nil, Params{}, err
	}
	return b, p, nil
}
