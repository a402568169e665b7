package pim_test

import (
	"fmt"
	"strings"
	"testing"

	"pimendure/pim"
)

// The kernel table behind pim.NewNamed is the one place a kernel name
// compiles, for every CLI and the job server, so its names, aliases and
// §4 defaults are pinned here.

// Every kernel compiles at its defaults; an unknown name is rejected.
func TestNewNamed(t *testing.T) {
	opt := pim.Options{Lanes: 16, Rows: 1024, PresetOutputs: true, NANDBasis: true}
	for _, name := range pim.KernelNames() {
		b, _, err := pim.NewNamed(opt, name, pim.KernelParams{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := b.Trace.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, bad := range []string{"", "nope", "mult2"} {
		if _, _, err := pim.NewNamed(opt, bad, pim.KernelParams{}); err == nil {
			t.Errorf("kernel %q accepted", bad)
		}
	}
}

// Convolution defaults to the paper's 8-bit precision, and an explicit
// 32 bits is honoured rather than replaced by the default.
func TestNewNamedConvPrecision(t *testing.T) {
	opt := pim.Options{Lanes: 16, Rows: 1024, PresetOutputs: true, NANDBasis: true}
	for _, c := range []struct{ bits, want int }{{0, 8}, {32, 32}, {4, 4}} {
		b, p, err := pim.NewNamed(opt, "conv", pim.KernelParams{Bits: c.bits})
		if err != nil {
			t.Fatal(err)
		}
		if p.Bits != c.want {
			t.Errorf("bits %d resolved to %d, want %d", c.bits, p.Bits, c.want)
		}
		if want := fmt.Sprintf("%d-bit", c.want); !strings.Contains(b.Description, want) {
			t.Errorf("bits %d: description %q should mention %s", c.bits, b.Description, want)
		}
	}
}

// A dot product defaults to the largest power of two that fits the lane
// count, so a 24-lane array builds the 16-element kernel.
func TestNewNamedDotAtNonPowerOfTwoLanes(t *testing.T) {
	opt := pim.Options{Lanes: 24, Rows: 512, PresetOutputs: true, NANDBasis: true}
	b, p, err := pim.NewNamed(opt, "dot", pim.KernelParams{Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 16 {
		t.Errorf("dot length %d, want 16", p.N)
	}
	want, err := pim.NewDotProduct(opt, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := pim.Fingerprint(b, opt), pim.Fingerprint(want, opt); got != w {
		t.Errorf("fingerprint %s, want the 16-element kernel's %s", got, w)
	}
}

// Every name the job server accepts, in any case, compiles to exactly
// the kernel its constructor builds.
func TestNewNamedAliasesMatchConstructors(t *testing.T) {
	opt := pim.Options{Lanes: 16, Rows: 512, PresetOutputs: true, NANDBasis: true}
	for _, c := range []struct {
		names  []string
		direct func() (*pim.Benchmark, error)
	}{
		{[]string{"mult", "multiplication", "MULT", "Multiplication"},
			func() (*pim.Benchmark, error) { return pim.NewParallelMult(opt, 4) }},
		{[]string{"dot", "dot-product", "dotproduct", "Dot-Product"},
			func() (*pim.Benchmark, error) { return pim.NewDotProduct(opt, 16, 4) }},
		{[]string{"conv", "convolution", "CONV"},
			func() (*pim.Benchmark, error) { return pim.NewConvolution(opt, 4, 3, 4) }},
		{[]string{"add", "vadd", "vector-add", "vectoradd", "VectorAdd"},
			func() (*pim.Benchmark, error) { return pim.NewVectorAdd(opt, 4) }},
		{[]string{"bnn", "BNN"},
			func() (*pim.Benchmark, error) { return pim.NewBNNLayer(opt, 64) }},
	} {
		want, err := c.direct()
		if err != nil {
			t.Fatal(err)
		}
		wantFP := pim.Fingerprint(want, opt)
		for _, name := range c.names {
			b, _, err := pim.NewNamed(opt, name, pim.KernelParams{Bits: 4})
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if got := pim.Fingerprint(b, opt); got != wantFP {
				t.Errorf("%s compiled to %s, constructor to %s", name, got, wantFP)
			}
		}
	}
}

// ResolveKernel canonicalizes the name and keeps exactly the parameters
// the kernel uses.
func TestResolveKernel(t *testing.T) {
	all := pim.KernelParams{Bits: 4, N: 8, GroupLanes: 2, MultsPerLane: 5, Synapses: 9}
	for _, c := range []struct {
		name, canonical string
		want            pim.KernelParams
	}{
		{"Multiplication", "mult", pim.KernelParams{Bits: 4}},
		{"dot-product", "dot", pim.KernelParams{Bits: 4, N: 8}},
		{"convolution", "conv", pim.KernelParams{Bits: 4, GroupLanes: 2, MultsPerLane: 5}},
		{"vadd", "add", pim.KernelParams{Bits: 4}},
		{"bnn", "bnn", pim.KernelParams{Synapses: 9}},
	} {
		name, p, err := pim.ResolveKernel(c.name, 64, all)
		if err != nil {
			t.Fatal(err)
		}
		if name != c.canonical || p != c.want {
			t.Errorf("%s resolved to %s %+v, want %s %+v", c.name, name, p, c.canonical, c.want)
		}
	}
	defaults := map[string]pim.KernelParams{
		"mult": {Bits: 32},
		"dot":  {Bits: 32, N: 64},
		"conv": {Bits: 8, GroupLanes: 4, MultsPerLane: 3},
		"add":  {Bits: 32},
		"bnn":  {Synapses: 64},
	}
	for name, want := range defaults {
		if _, p, err := pim.ResolveKernel(name, 100, pim.KernelParams{}); err != nil || p != want {
			t.Errorf("%s defaults at 100 lanes: %+v (err %v), want %+v", name, p, err, want)
		}
	}
}
