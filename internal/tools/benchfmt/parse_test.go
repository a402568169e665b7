package benchfmt

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: pimendure
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkHwEngine/long-epoch-8         	       2	 532335946 ns/op	        28.84 speedup_x
BenchmarkArrayIteration/speedup        	       2	  28752564 ns/op	        20.23 speedup_x	      16 B/op	       2 allocs/op
BenchmarkE1MultSynthesis               	     100	    123456 ns/op	      9824 writes/mult	      42.5 amplification
PASS
ok  	pimendure	2.944s
`
	doc, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Context["goos"] != "linux" || doc.Context["pkg"] != "pimendure" {
		t.Errorf("context not captured: %+v", doc.Context)
	}
	// One line carried -8, the others no suffix (GOMAXPROCS=1).
	if doc.Context["gomaxprocs"] != "8,1" {
		t.Errorf("gomaxprocs = %q, want \"8,1\"", doc.Context["gomaxprocs"])
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(doc.Benchmarks))
	}
	// The -8 GOMAXPROCS suffix must be stripped; sub-benchmark slashes kept.
	long, ok := doc.Benchmarks["BenchmarkHwEngine/long-epoch"]
	if !ok {
		t.Fatalf("long-epoch missing (keys: %v)", keys(doc))
	}
	if long.Iterations != 2 || long.NsPerOp != 532335946 || long.Metrics["speedup_x"] != 28.84 {
		t.Errorf("long-epoch parsed wrong: %+v", long)
	}
	arr := doc.Benchmarks["BenchmarkArrayIteration/speedup"]
	if arr.Metrics["B/op"] != 16 || arr.Metrics["allocs/op"] != 2 || arr.Metrics["speedup_x"] != 20.23 {
		t.Errorf("benchmem metrics parsed wrong: %+v", arr)
	}
	mult := doc.Benchmarks["BenchmarkE1MultSynthesis"]
	if mult.Metrics["writes/mult"] != 9824 || mult.Metrics["amplification"] != 42.5 {
		t.Errorf("custom metrics parsed wrong: %+v", mult)
	}
}

// The -N suffix stripped from the names is the GOMAXPROCS the numbers
// were measured at; it lands in the context, once per distinct value, and
// a run without suffixes was measured at GOMAXPROCS=1.
func TestParseRecordsGOMAXPROCS(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"BenchmarkA-2 1 10 ns/op\nBenchmarkB/sub-2 1 10 ns/op\n", "2"},
		{"BenchmarkA 1 10 ns/op\n", "1"},
		{"BenchmarkA 1 10 ns/op\nBenchmarkA-2 1 10 ns/op\nBenchmarkB 1 10 ns/op\n", "1,2"},
	} {
		doc, err := Parse(strings.NewReader(c.in))
		if err != nil {
			t.Fatal(err)
		}
		if got := doc.Context["gomaxprocs"]; got != c.want {
			t.Errorf("gomaxprocs = %q, want %q for:\n%s", got, c.want, c.in)
		}
	}
	doc, err := Parse(strings.NewReader("goos: linux\nPASS\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Context["gomaxprocs"]; ok {
		t.Error("gomaxprocs recorded without any result line")
	}
}

func TestParseRejectsMalformedPairs(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX 10 123 ns/op 4.5\n")); err == nil {
		t.Error("odd value/unit pairing accepted")
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	doc, err := Parse(strings.NewReader("BenchmarkHung\nsome log line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Errorf("non-result lines produced benchmarks: %v", keys(doc))
	}
}

func keys(d *Document) []string {
	var out []string
	for k := range d.Benchmarks {
		out = append(out, k)
	}
	return out
}
