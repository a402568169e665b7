package render

import (
	"bytes"
	"image/png"
	"strings"
	"testing"

	"pimendure/internal/stats"
)

func rampGrid() *stats.Grid {
	g := stats.NewGrid(2, 3)
	copy(g.Data, []float64{0, 0.2, 0.4, 0.6, 0.8, 1})
	return g
}

func TestHeatColorEndpointsAndClamp(t *testing.T) {
	cold := HeatColor(0)
	hot := HeatColor(1)
	if cold == hot {
		t.Fatal("ramp endpoints identical")
	}
	if HeatColor(-5) != cold || HeatColor(7) != hot {
		t.Error("clamping broken")
	}
	mid := HeatColor(0.5)
	if mid == cold || mid == hot {
		t.Error("midpoint should be distinct from the endpoints")
	}
	// Monotone brightness proxy: hot end should be brighter than cold.
	bright := func(c [4]uint8) int { return int(c[0]) + int(c[1]) + int(c[2]) }
	cC := cold
	cH := hot
	if bright([4]uint8{cH.R, cH.G, cH.B, 0}) <= bright([4]uint8{cC.R, cC.G, cC.B, 0}) {
		t.Error("hot end should be brighter")
	}
}

func TestHeatmapPNG(t *testing.T) {
	var buf bytes.Buffer
	if err := HeatmapPNG(&buf, rampGrid(), 4); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 12 || b.Dy() != 8 {
		t.Errorf("image %dx%d, want 12x8", b.Dx(), b.Dy())
	}
	if err := HeatmapPNG(&bytes.Buffer{}, rampGrid(), 0); err == nil {
		t.Error("zero scale accepted")
	}
	if err := HeatmapPNG(&bytes.Buffer{}, stats.NewGrid(0, 0), 1); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestHeatmapPGM(t *testing.T) {
	var buf bytes.Buffer
	if err := HeatmapPGM(&buf, rampGrid()); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "P2\n3 2\n255\n") {
		t.Errorf("bad PGM header: %q", s[:20])
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // header 3 + 2 data rows
		t.Errorf("PGM has %d lines", len(lines))
	}
	last := strings.Fields(lines[4])
	if last[len(last)-1] != "255" {
		t.Errorf("max cell should render 255, got %s", last[len(last)-1])
	}
	first := strings.Fields(lines[3])
	if first[0] != "0" {
		t.Errorf("zero cell should render 0, got %s", first[0])
	}
}

// failAfter errors once its byte budget is exhausted.
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
	g := rampGrid()
	size := func(fn func(w *bytes.Buffer) error) int {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	pgmLen := size(func(w *bytes.Buffer) error { return HeatmapPGM(w, g) })
	serLen := size(func(w *bytes.Buffer) error { return SeriesCSV(w, []string{"x"}, []float64{1, 2, 3}) })
	for budget := 0; budget < pgmLen; budget += 3 {
		if err := HeatmapPGM(&failAfter{n: budget}, g); err == nil {
			t.Fatalf("PGM with %d-byte budget should fail", budget)
		}
	}
	for budget := 0; budget < serLen; budget++ {
		if err := SeriesCSV(&failAfter{n: budget}, []string{"x"}, []float64{1, 2, 3}); err == nil {
			t.Fatalf("series CSV with %d-byte budget should fail", budget)
		}
	}
}

func TestSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := SeriesCSV(&buf, []string{"x", "y"}, []float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x,y\n1,3\n2,4\n" {
		t.Errorf("csv = %q", buf.String())
	}
	if err := SeriesCSV(&buf, []string{"x"}, []float64{1}, []float64{2}); err == nil {
		t.Error("header/column mismatch accepted")
	}
	if err := SeriesCSV(&buf, []string{"x", "y"}, []float64{1}, []float64{2, 3}); err == nil {
		t.Error("ragged columns accepted")
	}
	if err := SeriesCSV(&buf, nil); err == nil {
		t.Error("no columns accepted")
	}
}
