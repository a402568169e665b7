package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"pimendure/internal/mapping"
	"pimendure/pim"
)

// Request is the JSON body of POST /sweep and POST /run: a named
// benchmark, the array geometry, a pim.RunConfig, a strategy selection
// and a device technology. Zero fields take the paper's §4 defaults, so
// `{"benchmark":"mult"}` is a complete full-scale sweep request.
type Request struct {
	// Benchmark names the kernel: "mult"/"multiplication",
	// "dot"/"dot-product", "conv"/"convolution", "add"/"vector-add",
	// or "bnn", in any case (see pim.NewNamed).
	Benchmark string `json:"benchmark"`
	// Bits is the operand precision (default 32; convolution 8; the BNN
	// layer ignores it).
	Bits int `json:"bits,omitempty"`
	// N is the dot-product length (default: the largest power of two
	// that fits Lanes).
	N int `json:"n,omitempty"`
	// GroupLanes and MultsPerLane shape the convolution (default 4×3).
	GroupLanes   int `json:"group_lanes,omitempty"`
	MultsPerLane int `json:"mults_per_lane,omitempty"`
	// Synapses sizes the BNN layer (default 64).
	Synapses int `json:"synapses,omitempty"`

	// Lanes × Rows is the array geometry (default 1024×1024).
	Lanes int `json:"lanes,omitempty"`
	Rows  int `json:"rows,omitempty"`
	// NoPreset disables the CRAM-style output preset write; Mixed2
	// selects the minimum two-input basis over NAND; LowestFirstAlloc
	// switches to the adversarial ablation allocator.
	NoPreset         bool `json:"no_preset,omitempty"`
	Mixed2           bool `json:"mixed2,omitempty"`
	LowestFirstAlloc bool `json:"lowest_first_alloc,omitempty"`

	// Iterations, RecompileEvery, Seed and SampleEvery mirror
	// pim.RunConfig (defaults 10000, 100, 0, 0). The engine worker count
	// is the server's budget, not the request's.
	Iterations     int   `json:"iterations,omitempty"`
	RecompileEvery int   `json:"recompile_every,omitempty"`
	Seed           int64 `json:"seed,omitempty"`
	SampleEvery    int   `json:"sample_every,omitempty"`

	// Strategies selects load-balancing configurations by paper label
	// ("StxSt", "RaxBs+Hw", …). Empty means all 18 for /sweep and /fleet
	// and the St×St baseline for /run, which takes at most one.
	Strategies []string `json:"strategies,omitempty"`
	// Technology names the device model: "MRAM" (default), "RRAM",
	// "PCM", "MRAM-projected".
	Technology string `json:"technology,omitempty"`

	// Devices, Sigmas and Technologies shape POST /fleet (ignored by
	// /run and /sweep): the simulated fleet population per sweep point
	// (default 100 000, capped by Config.MaxDevices), the lognormal
	// endurance shapes (default {0.3}), and the device models to sweep
	// (default: just Technology).
	Devices      int       `json:"devices,omitempty"`
	Sigmas       []float64 `json:"sigmas,omitempty"`
	Technologies []string  `json:"technologies,omitempty"`
}

// decodeRequest reads a POST body into a Request: at most 1 MiB of JSON,
// unknown fields rejected.
func decodeRequest(w http.ResponseWriter, body io.ReadCloser) (Request, error) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// normalized returns the request in canonical form — the form behind
// coalescing fingerprints. Defaulted fields are filled in, the kernel
// name and its parameters are the kernel table's resolved ones (fields
// the kernel ignores are zeroed), and technology names are canonical, so
// an alias, a different case, an omitted default or an ignored parameter
// does not split coalescing. A request naming no known kernel keeps its
// name for validate to reject.
func (r Request) normalized() Request {
	if r.Lanes <= 0 {
		r.Lanes = 1024
	}
	if r.Rows <= 0 {
		r.Rows = 1024
	}
	if name, p, err := pim.ResolveKernel(r.Benchmark, r.Lanes, r.kernelParams()); err == nil {
		r.Benchmark = name
		r.Bits, r.N, r.GroupLanes, r.MultsPerLane, r.Synapses = p.Bits, p.N, p.GroupLanes, p.MultsPerLane, p.Synapses
	}
	if r.Iterations <= 0 {
		r.Iterations = 10000
	}
	if r.RecompileEvery == 0 {
		r.RecompileEvery = 100
	}
	if r.Technology == "" {
		r.Technology = "MRAM"
	}
	r.Technology = canonicalTechnology(r.Technology)
	if r.Devices <= 0 {
		r.Devices = 100_000
	}
	if len(r.Sigmas) == 0 {
		r.Sigmas = []float64{pim.DefaultFleetSigma}
	}
	if len(r.Technologies) == 0 {
		r.Technologies = []string{r.Technology}
	} else {
		techs := make([]string, len(r.Technologies)) // the caller's slice stays as sent
		for i, name := range r.Technologies {
			techs[i] = canonicalTechnology(name)
		}
		r.Technologies = techs
	}
	return r
}

// canonicalTechnology returns the model's own spelling of a technology
// name, or the name unchanged when no model matches (validate rejects it).
func canonicalTechnology(name string) string {
	if t, err := pim.LookupTechnology(name); err == nil {
		return t.Name
	}
	return name
}

// kernelParams returns the request's kernel parameters.
func (r Request) kernelParams() pim.KernelParams {
	return pim.KernelParams{Bits: r.Bits, N: r.N, GroupLanes: r.GroupLanes, MultsPerLane: r.MultsPerLane, Synapses: r.Synapses}
}

// validate checks a normalized request for a job kind ("run", "sweep" or
// "fleet") against the server's admission caps — the cheap rejection
// (400) that keeps a hostile or mistyped request from ever reaching the
// compile/simulate pipeline.
func (r Request) validate(cfg Config, kind string) error {
	if _, _, err := pim.ResolveKernel(r.Benchmark, r.Lanes, r.kernelParams()); err != nil {
		return err
	}
	if kind == "run" && len(r.Strategies) > 1 {
		return fmt.Errorf("/run simulates one strategy, got %d; use /sweep for several", len(r.Strategies))
	}
	if r.Lanes > cfg.MaxLanes || r.Rows > cfg.MaxRows {
		return fmt.Errorf("array %d×%d exceeds the server cap %d×%d", r.Lanes, r.Rows, cfg.MaxLanes, cfg.MaxRows)
	}
	if r.Iterations > cfg.MaxIterations {
		return fmt.Errorf("iterations %d exceeds the server cap %d", r.Iterations, cfg.MaxIterations)
	}
	if r.SampleEvery < 0 {
		return fmt.Errorf("sample_every must be ≥ 0")
	}
	if r.Devices > cfg.MaxDevices {
		return fmt.Errorf("devices %d exceeds the server cap %d", r.Devices, cfg.MaxDevices)
	}
	if len(r.Sigmas) > maxFleetSigmas {
		return fmt.Errorf("%d sigmas exceeds the cap %d", len(r.Sigmas), maxFleetSigmas)
	}
	if len(r.Strategies) > maxStrategies {
		return fmt.Errorf("%d strategies exceeds the cap %d", len(r.Strategies), maxStrategies)
	}
	if len(r.Technologies) > maxTechnologies {
		return fmt.Errorf("%d technologies exceeds the cap %d", len(r.Technologies), maxTechnologies)
	}
	for _, s := range r.Sigmas {
		if s < 0 {
			return fmt.Errorf("negative sigma %v", s)
		}
	}
	if _, err := r.technology(); err != nil {
		return err
	}
	if _, err := r.technologies(); err != nil {
		return err
	}
	if _, err := parseStrategies(r.Strategies); err != nil {
		return err
	}
	return nil
}

// maxFleetSigmas bounds the σ sweep of one request: each σ costs a
// hazard-table build per strategy plus a full device population, so the
// cap keeps a single request from smuggling in an unbounded study.
const maxFleetSigmas = 16

// maxStrategies and maxTechnologies bound a request's other two lists by
// the sets they name from: a repeated name adds no result, while each
// strategy × technology × σ is a fleet point.
var (
	maxStrategies   = len(pim.AllStrategies())
	maxTechnologies = len(pim.Technologies())
)

// technology resolves the named device model.
func (r Request) technology() (pim.Technology, error) {
	return pim.LookupTechnology(r.Technology)
}

// technologies resolves the fleet sweep's device-model list (normalized
// to at least the single Technology).
func (r Request) technologies() ([]pim.Technology, error) {
	out := make([]pim.Technology, 0, len(r.Technologies))
	for _, name := range r.Technologies {
		t, err := pim.LookupTechnology(name)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// parseStrategies converts paper labels ("RaxBs+Hw") into strategy
// configurations; an empty list returns nil (the caller's default).
func parseStrategies(labels []string) ([]pim.Strategy, error) {
	if len(labels) == 0 {
		return nil, nil
	}
	out := make([]pim.Strategy, 0, len(labels))
	for _, label := range labels {
		s, err := parseStrategy(label)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func parseStrategy(label string) (pim.Strategy, error) {
	var s pim.Strategy
	name := strings.TrimSpace(label)
	if strings.HasSuffix(name, "+Hw") {
		s.Hw = true
		name = strings.TrimSuffix(name, "+Hw")
	}
	parts := strings.SplitN(name, "x", 2)
	if len(parts) != 2 {
		return s, fmt.Errorf("malformed strategy %q (want e.g. \"RaxBs+Hw\")", label)
	}
	var err error
	if s.Within, err = mapping.ParseStrategy(parts[0]); err != nil {
		return s, fmt.Errorf("strategy %q: %v", label, err)
	}
	if s.Between, err = mapping.ParseStrategy(parts[1]); err != nil {
		return s, fmt.Errorf("strategy %q: %v", label, err)
	}
	return s, nil
}

// fingerprint is the coalescing key: two requests with the same
// canonical form (and endpoint kind: "run", "sweep" or "fleet") are the
// same work.
func (r Request) fingerprint(kind string) string {
	data, _ := json.Marshal(r) // struct of plain fields; cannot fail
	return kind + ":" + string(data)
}

// options converts the geometry/compile fields to pim.Options.
func (r Request) options() pim.Options {
	return pim.Options{
		Lanes:            r.Lanes,
		Rows:             r.Rows,
		PresetOutputs:    !r.NoPreset,
		NANDBasis:        !r.Mixed2,
		LowestFirstAlloc: r.LowestFirstAlloc,
	}
}

// compile builds the named benchmark — the expensive half of request
// construction, run on a queue worker rather than the request handler.
func (r Request) compile() (*pim.Benchmark, error) {
	b, _, err := pim.NewNamed(r.options(), r.Benchmark, r.kernelParams())
	return b, err
}
