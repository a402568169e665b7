package report

import (
	"bytes"
	"strings"
	"testing"
)

func markdown(t *testing.T, tb *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tb.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Table 3", "Benchmark", "Lifetime")
	tb.AddRow("mult", "1.59×")
	tb.AddRow("conv", "2.22×")
	md := markdown(t, tb)
	for _, want := range []string{"### Table 3", "| Benchmark | Lifetime |", "| --- | --- |", "| conv | 2.22× |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestTableMarkdownNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("1")
	if strings.Contains(markdown(t, tb), "###") {
		t.Error("untitled table should not emit a heading")
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a,b\n1,2\n" {
		t.Errorf("csv = %q", buf.String())
	}
	tb.AddRow("with,comma", "x")
	if err := tb.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("comma cell accepted")
	}
}

func TestAddRowArityPanics(t *testing.T) {
	tb := NewTable("x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("wrong arity should panic")
		}
	}()
	tb.AddRow("only-one")
}

// failAfter errors once n bytes have been written — exercising every
// error-propagation branch of the writers.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFull
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errFull
	}
	f.n -= len(p)
	return len(p), nil
}

var errFull = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "disk full" }

func TestWriterErrorsPropagate(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.AddRow("1", "2")
	tb.AddRow("3", "4")
	var md, csv bytes.Buffer
	if err := tb.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for budget := 0; budget < md.Len(); budget++ {
		if err := tb.WriteMarkdown(&failAfter{n: budget}); err == nil {
			t.Fatalf("markdown with %d-byte budget should fail", budget)
		}
	}
	for budget := 0; budget < csv.Len(); budget++ {
		if err := tb.WriteCSV(&failAfter{n: budget}); err == nil {
			t.Fatalf("csv with %d-byte budget should fail", budget)
		}
	}
}

func TestFormatters(t *testing.T) {
	if Fixed(3.14159, 2) != "3.14" {
		t.Error("Fixed wrong")
	}
	if Sci(1.07e14) != "1.07e+14" {
		t.Errorf("Sci = %q", Sci(1.07e14))
	}
	if Pct(0.6178, 2) != "61.78%" {
		t.Errorf("Pct = %q", Pct(0.6178, 2))
	}
	if Times(2.217) != "2.22×" {
		t.Errorf("Times = %q", Times(2.217))
	}
}
