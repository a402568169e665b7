package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

func parseArgs(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o, err := parseFlags(fs, args)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// -quick lowers only the flags the command line leaves unset.
func TestQuickKeepsExplicitFlags(t *testing.T) {
	if o := parseArgs(t); o.iters != 100000 || o.devices != 1_000_000 || o.quick {
		t.Errorf("defaults: iters %d devices %d quick %v", o.iters, o.devices, o.quick)
	}
	if o := parseArgs(t, "-quick"); o.iters != 2000 || o.devices != 100_000 || !o.quick {
		t.Errorf("-quick: iters %d devices %d, want 2000 / 100000", o.iters, o.devices)
	}
	if o := parseArgs(t, "-quick", "-iters", "400"); o.iters != 400 || o.devices != 100_000 {
		t.Errorf("-quick -iters 400: iters %d devices %d, want 400 / 100000", o.iters, o.devices)
	}
	if o := parseArgs(t, "-devices", "20000", "-quick"); o.iters != 2000 || o.devices != 20000 {
		t.Errorf("-devices 20000 -quick: iters %d devices %d, want 2000 / 20000", o.iters, o.devices)
	}
	if o := parseArgs(t, "-sigmas", "0.3, 0.6"); !reflect.DeepEqual(o.sigmas, []float64{0.3, 0.6}) {
		t.Errorf("-sigmas: %v", o.sigmas)
	}
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, err := parseFlags(fs, []string{"-sigmas", "-1"}); err == nil {
		t.Error("a negative sigma was accepted")
	}
}
