package traceio

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/program"
	"pimendure/internal/synth"
	"pimendure/internal/workloads"
)

func sampleTrace(t testing.TB) *workloads.Benchmark {
	t.Helper()
	cfg := workloads.Config{Lanes: 8, Rows: 128, Basis: synth.NAND}
	b, err := workloads.DotProduct(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace(t).Trace
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Lanes != tr.Lanes || back.LaneBits != tr.LaneBits ||
		back.WriteSlots != tr.WriteSlots || back.ReadSlots != tr.ReadSlots {
		t.Fatalf("header mismatch: %+v vs %+v", back, tr)
	}
	if len(back.Ops) != len(tr.Ops) {
		t.Fatalf("op count %d vs %d", len(back.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if back.Ops[i] != tr.Ops[i] {
			t.Fatalf("op %d: %+v vs %+v", i, back.Ops[i], tr.Ops[i])
		}
	}
	if len(back.Masks) != len(tr.Masks) {
		t.Fatalf("mask count %d vs %d", len(back.Masks), len(tr.Masks))
	}
	for i := range tr.Masks {
		if !back.Masks[i].Equal(tr.Masks[i]) {
			t.Fatalf("mask %d differs", i)
		}
	}
}

// A round-tripped trace must produce the identical wear distribution —
// the end-to-end guarantee serialization exists for.
func TestRoundTrippedTraceSimulatesIdentically(t *testing.T) {
	tr := sampleTrace(t).Trace
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SimConfig{Rows: 128, PresetOutputs: true, Iterations: 20, RecompileEvery: 5, Seed: 9}
	strat := core.StrategyConfig{Within: 1, Between: 2, Hw: true} // RaxBs+Hw
	a, err := core.Simulate(tr, cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Simulate(back, cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("round-tripped trace produced a different distribution")
	}
}

// corruptTraces returns the sample trace's encoding damaged in ways
// ReadTrace must reject, keyed by the damage.
func corruptTraces(t testing.TB) map[string]string {
	t.Helper()
	tr := sampleTrace(t).Trace
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	mutate := func(edit func(*traceJSON)) string {
		var in traceJSON
		if err := json.Unmarshal([]byte(good), &in); err != nil {
			t.Fatal(err)
		}
		edit(&in)
		out, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	return map[string]string{
		"bad version": strings.Replace(good, `"version":1`, `"version":99`, 1),
		"bad lanes":   strings.Replace(good, `"lanes":8`, `"lanes":0`, 1),
		"not json":    "{",
		"bad op kind": strings.Replace(good, "[3,", "[9,", 1),
		// Kind 256 and gate 258 wrap to a gate op and AND as uint8.
		"wrapped kind and gate": mutate(func(in *traceJSON) {
			in.Ops = append([]opRecord{{256, 258, 2, 0, 1, 0, 0, 0}}, in.Ops...)
		}),
		"wrapped gate": mutate(func(in *traceJSON) {
			in.Ops = append([]opRecord{{0, 258, 2, 0, 1, 0, 0, 0}}, in.Ops...)
		}),
		// Without the ops that use them, negative slot counts pass
		// Validate; a negative read-slot count then panics the runner.
		"negative read slots": mutate(func(in *traceJSON) {
			in.Ops = dropKind(in.Ops, program.OpRead)
			in.ReadSlots = -1
		}),
		"negative write slots": mutate(func(in *traceJSON) {
			in.Ops = dropKind(in.Ops, program.OpWrite)
			in.WriteSlots = -1
		}),
		// A lane count whose full-mask bitmap alone would be 128 GiB.
		"huge lanes": mutate(func(in *traceJSON) {
			in.Lanes = 1 << 40
			for i := range in.Masks {
				in.Masks[i].Lanes = in.Lanes
			}
		}),
	}
}

// dropKind returns the records whose op kind is not kind.
func dropKind(ops []opRecord, kind program.OpKind) []opRecord {
	var out []opRecord
	for _, rec := range ops {
		if rec[0] != int32(kind) {
			out = append(out, rec)
		}
	}
	return out
}

func TestReadTraceRejectsCorruption(t *testing.T) {
	for name, payload := range corruptTraces(t) {
		if _, err := ReadTrace(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadTrace feeds arbitrary bytes to the trace decoder. Properties:
// decoding never panics; an accepted trace passes Validate and holds every
// op record's values as written (no silent narrowing); and re-encoding an
// accepted trace gives an encoding that decodes and re-encodes to itself.
func FuzzReadTrace(f *testing.F) {
	var good bytes.Buffer
	if err := WriteTrace(&good, sampleTrace(f).Trace); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	bad := corruptTraces(f)
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names) // stable seed numbering
	for _, name := range names {
		f.Add([]byte(bad[name]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var in traceJSON
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
			t.Fatalf("accepted input does not decode as a trace: %v", err)
		}
		if len(tr.Ops) != len(in.Ops) {
			t.Fatalf("decoded %d ops from %d records", len(tr.Ops), len(in.Ops))
		}
		for i, op := range tr.Ops {
			if got := encodeOp(op); got != in.Ops[i] {
				t.Fatalf("op %d decoded as %v, record is %v", i, got, in.Ops[i])
			}
		}
		var enc bytes.Buffer
		if err := WriteTrace(&enc, tr); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTrace(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, enc.Bytes())
		}
		var again bytes.Buffer
		if err := WriteTrace(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), again.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", enc.Bytes(), again.Bytes())
		}
	})
}

func TestDistRoundTrip(t *testing.T) {
	d := core.NewWriteDist(4, 3)
	for i := range d.Counts {
		d.Counts[i] = uint64(i * 7)
	}
	d.Iterations = 100
	d.StepsPerIteration = 999
	var buf bytes.Buffer
	if err := WriteDist(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) || back.Iterations != 100 || back.StepsPerIteration != 999 {
		t.Error("distribution round trip mismatch")
	}
}

func TestReadDistRejectsCorruption(t *testing.T) {
	d := core.NewWriteDist(2, 2)
	var buf bytes.Buffer
	if err := WriteDist(&buf, d); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := map[string]string{
		"bad version": strings.Replace(good, `"version":1`, `"version":2`, 1),
		"bad shape":   strings.Replace(good, `"rows":2`, `"rows":3`, 1),
		"zero dims":   strings.Replace(good, `"rows":2`, `"rows":0`, 1),
		"not json":    "nope",
	}
	for name, payload := range cases {
		if _, err := ReadDist(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
