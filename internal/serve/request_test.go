package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"pimendure/pim"
)

// Coalescing keys on the canonical form: spellings of the same work share
// a fingerprint, and any change to the work does not.
func TestRequestCanonicalForm(t *testing.T) {
	base := Request{Benchmark: "dot", Bits: 4, Lanes: 24, Rows: 512, Iterations: 100, Seed: 3}
	want := base.normalized().fingerprint("run")
	for _, c := range []struct {
		name string
		edit func(*Request)
		same bool
	}{
		{"alias", func(r *Request) { r.Benchmark = "dot-product" }, true},
		{"case change", func(r *Request) { r.Benchmark = "DotProduct" }, true},
		{"omitted default spelled out", func(r *Request) {
			r.N, r.RecompileEvery, r.Technology, r.Devices = 16, 100, "MRAM", 100_000
		}, true},
		{"ignored parameters", func(r *Request) { r.Synapses, r.GroupLanes, r.MultsPerLane = 9, 2, 5 }, true},
		{"technology case change", func(r *Request) {
			r.Technology, r.Technologies = "mram", []string{"Mram"}
		}, true},
		{"different seed", func(r *Request) { r.Seed = 4 }, false},
		{"different kernel", func(r *Request) { r.Benchmark = "add" }, false},
		{"different precision", func(r *Request) { r.Bits = 8 }, false},
		{"different dot length", func(r *Request) { r.N = 8 }, false},
		{"different technology", func(r *Request) { r.Technology = "rram" }, false},
	} {
		r := base
		c.edit(&r)
		if got := r.normalized().fingerprint("run"); (got == want) != c.same {
			t.Errorf("%s: fingerprint %s, base %s (want equal: %v)", c.name, got, want, c.same)
		}
	}

	// The convolution's precision default is the kernel table's 8 bits.
	conv := Request{Benchmark: "convolution"}.normalized()
	if spelled := (Request{Benchmark: "conv", Bits: 8, GroupLanes: 4, MultsPerLane: 3}).normalized(); conv.fingerprint("sweep") != spelled.fingerprint("sweep") {
		t.Errorf("defaulted conv %+v and spelled-out conv %+v differ", conv, spelled)
	}
}

// A dot product at a lane count that is not a power of two runs at the
// largest power of two that fits, bit-identical to a direct pim.Run.
func TestRunDotAtNonPowerOfTwoLanes(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	code, out := postJSON(t, ts.Client(), ts.URL+"/run", map[string]any{
		"benchmark": "dot", "lanes": 24, "rows": 512, "bits": 4, "iterations": 100,
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST /run: status %d body %v", code, out)
	}
	st := pollDone(t, ts.Client(), ts.URL, out["job"].(string))
	if st.State != "done" {
		t.Fatalf("job state %q (err %q), want done", st.State, st.Error)
	}
	opt := pim.Options{Lanes: 24, Rows: 512, PresetOutputs: true, NANDBasis: true}
	bench, err := pim.NewDotProduct(opt, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pim.Run(bench, opt, pim.RunConfig{Iterations: 100, RecompileEvery: 100},
		pim.StaticStrategy, pim.MRAM())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Result.Strategies[0].DistFNV; got != want.Dist.Checksum() {
		t.Errorf("served dist %s, direct 16-element run %s", got, want.Dist.Checksum())
	}
}

// FuzzRequest drives arbitrary bodies through the admission path —
// decode, normalize, validate, fingerprint — without running jobs.
// Properties: nothing panics; normalize is idempotent; a request
// validate accepts names a kernel of the table, in canonical form.
func FuzzRequest(f *testing.F) {
	for _, body := range []string{
		// TestRequestValidation's bodies.
		`{}`,
		`{"benchmark":"fft"}`,
		`{"benchmark":"mult","lanes":1048576}`,
		`{"benchmark":"mult","iterations":1073741824}`,
		`{"benchmark":"mult","strategies":["XxYy"]}`,
		`{"benchmark":"mult","technology":"SRAM"}`,
		`{"benchmark":"mult","bogus":1}`,
		// A dot product at a lane count that is not a power of two.
		`{"benchmark":"dot","lanes":24,"rows":512,"bits":4,"iterations":100}`,
		// Two strategies: a /sweep body that /run rejects.
		`{"benchmark":"mult","strategies":["StxSt","RaxRa"]}`,
	} {
		f.Add([]byte(body))
	}
	cfg := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		norm := req.normalized()
		for _, kind := range []string{"run", "sweep", "fleet"} {
			if a, b := norm.fingerprint(kind), norm.normalized().fingerprint(kind); a != b {
				t.Fatalf("normalize is not idempotent:\n%s\n%s", a, b)
			}
		}
		if norm.validate(cfg, "sweep") != nil {
			return
		}
		name, _, err := pim.ResolveKernel(norm.Benchmark, norm.Lanes, norm.kernelParams())
		if err != nil {
			t.Fatalf("validate accepted kernel %q, which the table rejects: %v", norm.Benchmark, err)
		}
		if name != norm.Benchmark {
			t.Fatalf("normalized kernel %q is not canonical (%q)", norm.Benchmark, name)
		}
	})
}
