package gates

import (
	"testing"
	"testing/quick"
)

func TestArity(t *testing.T) {
	for _, k := range Kinds() {
		want := 2
		if k == NOT || k == COPY {
			want = 1
		}
		if got := k.Arity(); got != want {
			t.Errorf("%v.Arity() = %d, want %d", k, got, want)
		}
	}
}

func TestTruthTables(t *testing.T) {
	cases := []struct {
		k    Kind
		out  [4]bool // indexed by a*2+b for two-input; [a*2] for one-input
		name string
	}{
		{NOT, [4]bool{true, true, false, false}, "NOT"},
		{COPY, [4]bool{false, false, true, true}, "COPY"},
		{AND, [4]bool{false, false, false, true}, "AND"},
		{NAND, [4]bool{true, true, true, false}, "NAND"},
		{OR, [4]bool{false, true, true, true}, "OR"},
		{NOR, [4]bool{true, false, false, false}, "NOR"},
		{XOR, [4]bool{false, true, true, false}, "XOR"},
		{XNOR, [4]bool{true, false, false, true}, "XNOR"},
	}
	for _, c := range cases {
		for i := 0; i < 4; i++ {
			a, b := i/2 == 1, i%2 == 1
			if got := c.k.Eval(a, b); got != c.out[i] {
				t.Errorf("%s.Eval(%v,%v) = %v, want %v", c.name, a, b, got, c.out[i])
			}
		}
	}
}

func TestStringAndValid(t *testing.T) {
	for _, k := range Kinds() {
		if !k.Valid() {
			t.Errorf("%v should be valid", k)
		}
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	bad := Kind(200)
	if bad.Valid() {
		t.Error("Kind(200) should be invalid")
	}
	if bad.String() != "Kind(200)" {
		t.Errorf("bad.String() = %q", bad.String())
	}
}

func TestEvalPanicsOnInvalidKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eval on invalid kind should panic")
		}
	}()
	Kind(99).Eval(true, false)
}

func TestCellCosts(t *testing.T) {
	for _, k := range Kinds() {
		if k.CellWrites() != 1 {
			t.Errorf("%v.CellWrites() = %d, want 1", k, k.CellWrites())
		}
		if k.CellReads() != k.Arity() {
			t.Errorf("%v.CellReads() = %d, want arity %d", k, k.CellReads(), k.Arity())
		}
	}
}

// Property: NAND(a,b) == NOT(AND(a,b)) and the De Morgan dual holds, for
// all inputs. This pins the truth tables against each other.
func TestGateAlgebraProperties(t *testing.T) {
	f := func(a, b bool) bool {
		if NAND.Eval(a, b) != NOT.Eval(AND.Eval(a, b), false) {
			return false
		}
		if NOR.Eval(a, b) != NOT.Eval(OR.Eval(a, b), false) {
			return false
		}
		if XOR.Eval(a, b) != OR.Eval(AND.Eval(a, NOT.Eval(b, false)), AND.Eval(NOT.Eval(a, false), b)) {
			return false
		}
		if XNOR.Eval(a, b) != NOT.Eval(XOR.Eval(a, b), false) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
