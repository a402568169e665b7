package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStrategyStrings(t *testing.T) {
	cases := map[Strategy]string{Static: "St", Random: "Ra", ByteShift: "Bs"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Error("unknown strategy string")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseStrategy("zz"); err == nil {
		t.Error("ParseStrategy should reject unknown names")
	}
}

func TestIdentityPerm(t *testing.T) {
	p := Identity(16)
	for i := 0; i < 16; i++ {
		if p.Apply(i) != i {
			t.Fatalf("identity maps %d to %d", i, p.Apply(i))
		}
	}
	if !p.IsBijection() {
		t.Error("identity not a bijection")
	}
}

func TestShiftPerm(t *testing.T) {
	p := ShiftPerm(10, 3)
	if p.Apply(0) != 3 || p.Apply(9) != 2 {
		t.Errorf("shift wrong: 0->%d 9->%d", p.Apply(0), p.Apply(9))
	}
	if !p.IsBijection() {
		t.Error("shift not a bijection")
	}
	// negative and over-length shifts wrap
	if ShiftPerm(10, -3).Apply(0) != 7 {
		t.Error("negative shift wrong")
	}
	if ShiftPerm(10, 23).Apply(0) != 3 {
		t.Error("over-length shift wrong")
	}
}

func TestRandomPermIsBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		if !RandomPerm(100, rng).IsBijection() {
			t.Fatal("random perm not a bijection")
		}
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := RandomPerm(64, rng)
	inv := p.Inverse()
	for i := 0; i < 64; i++ {
		if inv.Apply(p.Apply(i)) != i {
			t.Fatalf("inverse broken at %d", i)
		}
	}
}

func TestScheduleDeterminism(t *testing.T) {
	s := Schedule{Rows: 128, Lanes: 64, Within: Random, Between: Random, Seed: 7}
	for epoch := 0; epoch < 5; epoch++ {
		a := s.EpochWithin(epoch)
		b := s.EpochWithin(epoch)
		for i := 0; i < 128; i++ {
			if a.Apply(i) != b.Apply(i) {
				t.Fatalf("epoch %d within perm not deterministic", epoch)
			}
		}
	}
}

func TestScheduleEpochZeroIsIdentity(t *testing.T) {
	// Epoch 0 is the as-compiled layout for every strategy so that all
	// configurations start from the same baseline distribution.
	for _, st := range Strategies() {
		s := Schedule{Rows: 32, Lanes: 32, Within: st, Between: st, Seed: 3}
		w := s.EpochWithin(0)
		for i := 0; i < 32; i++ {
			if w.Apply(i) != i {
				t.Errorf("%v epoch-0 within perm not identity", st)
			}
		}
	}
}

func TestScheduleStrategies(t *testing.T) {
	s := Schedule{Rows: 64, Lanes: 32, Within: ByteShift, Between: Static, Seed: 1}
	w := s.EpochWithin(2)
	if w.Apply(0) != 16 { // 2 epochs × 8 bits
		t.Errorf("byte shift epoch 2 maps 0 to %d, want 16", w.Apply(0))
	}
	b := s.EpochBetween(5)
	for i := 0; i < 32; i++ {
		if b.Apply(i) != i {
			t.Fatal("static between perm should stay identity")
		}
	}
	if (Schedule{Within: Random, Between: ByteShift}).Name() != "RaxBs" {
		t.Error("schedule name wrong")
	}
}

func TestScheduleWithinBetweenIndependent(t *testing.T) {
	s := Schedule{Rows: 64, Lanes: 64, Within: Random, Between: Random, Seed: 9}
	w, b := s.EpochWithin(1), s.EpochBetween(1)
	same := true
	for i := 0; i < 64; i++ {
		if w.Apply(i) != b.Apply(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("within and between perms should be decorrelated")
	}
}

func TestScheduleRandomVariesByEpoch(t *testing.T) {
	s := Schedule{Rows: 256, Lanes: 4, Within: Random, Between: Static, Seed: 11}
	a, b := s.EpochWithin(1), s.EpochWithin(2)
	same := true
	for i := 0; i < 256; i++ {
		if a.Apply(i) != b.Apply(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("random perms should differ between epochs")
	}
}

// Fig. 8: byte-shifting keeps a byte-aligned operand byte-compact and in
// order; random shuffling scatters it.
func TestByteAccessCost(t *testing.T) {
	operand := make([]int, 32)
	for i := range operand {
		operand[i] = 64 + i // byte-aligned 32-bit variable
	}
	// Identity: 4 bytes, ordered.
	bytes, ordered := ByteAccessCost(Identity(1024), operand)
	if bytes != 4 || !ordered {
		t.Errorf("identity: %d bytes ordered=%v, want 4 true", bytes, ordered)
	}
	// Byte shift (non-wrapping): still 4 bytes, ordered.
	bytes, ordered = ByteAccessCost(ShiftPerm(1024, 8), operand)
	if bytes != 4 || !ordered {
		t.Errorf("byte shift: %d bytes ordered=%v, want 4 true", bytes, ordered)
	}
	// Non-byte shift keeps order but straddles an extra byte.
	bytes, ordered = ByteAccessCost(ShiftPerm(1024, 3), operand)
	if bytes != 5 || !ordered {
		t.Errorf("bit shift: %d bytes ordered=%v, want 5 true", bytes, ordered)
	}
	// Random scatters: far more bytes, order lost (overwhelmingly).
	rng := rand.New(rand.NewSource(2))
	bytes, ordered = ByteAccessCost(RandomPerm(1024, rng), operand)
	if bytes < 16 || ordered {
		t.Errorf("random: %d bytes ordered=%v, want scattered and unordered", bytes, ordered)
	}
}

func TestHwRenamerBasics(t *testing.T) {
	h := NewHwRenamer(8)
	if h.ArchRows() != 7 || h.FreeRow() != 7 {
		t.Fatalf("init: arch %d free %d", h.ArchRows(), h.FreeRow())
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	phys := h.RenameOnWrite(3)
	if phys != 7 {
		t.Errorf("first rename wrote %d, want 7 (old free)", phys)
	}
	if h.FreeRow() != 3 {
		t.Errorf("free = %d, want 3 (previous home of arch 3)", h.FreeRow())
	}
	if h.Lookup(3) != 7 {
		t.Errorf("arch 3 now at %d, want 7", h.Lookup(3))
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHwRenamerReset(t *testing.T) {
	h := NewHwRenamer(16)
	for i := 0; i < 100; i++ {
		h.RenameOnWrite(i % 15)
	}
	h.Reset()
	for i := 0; i < 15; i++ {
		if h.Lookup(i) != i {
			t.Fatal("reset did not restore identity")
		}
	}
	if h.FreeRow() != 15 {
		t.Fatal("reset did not restore spare row")
	}
}

// Property: any write sequence keeps the renamer a bijection, and a
// rename immediately followed by a lookup agrees.
func TestHwRenamerBijectionProperty(t *testing.T) {
	f := func(writes []uint8) bool {
		h := NewHwRenamer(32)
		for _, w := range writes {
			arch := int(w) % 31
			phys := h.RenameOnWrite(arch)
			if h.Lookup(arch) != phys {
				return false
			}
		}
		return h.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHwRenamerTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 1-row renamer")
		}
	}()
	NewHwRenamer(1)
}

func TestPermEqual(t *testing.T) {
	a := ShiftPerm(16, 8)
	b := ShiftPerm(16, 24) // 24 mod 16 == 8
	if !a.Equal(b) {
		t.Error("identical rotations reported unequal")
	}
	if !a.Equal(a) {
		t.Error("perm not equal to itself")
	}
	if a.Equal(nil) {
		t.Error("perm equal to nil")
	}
	if a.Equal(ShiftPerm(16, 1)) {
		t.Error("distinct rotations reported equal")
	}
	if a.Equal(ShiftPerm(8, 0)) {
		t.Error("different domain sizes reported equal")
	}
}

// Schedule keys name epoch permutations: equal keys must give equal
// maps (Equal is the oracle), St and Bs keys must be exact, and Ra keys
// distinct per epoch — over domains from one address to 1024, the
// default step and steps that do and do not divide the domain.
func TestScheduleKeys(t *testing.T) {
	const epochs = 40
	for _, st := range Strategies() {
		for _, n := range []int{1, 2, 8, 95, 96, 1024} {
			for _, step := range []int{0, 1, 3, 8} {
				s := Schedule{Rows: n, Lanes: n, Within: st, Between: st, Seed: 11, ShiftStep: step}
				for _, side := range []struct {
					name string
					key  func(int) int
					perm func(int) *Perm
				}{
					{"within", s.WithinKey, s.EpochWithin},
					{"between", s.BetweenKey, s.EpochBetween},
				} {
					keys := make([]int, epochs)
					perms := make([]*Perm, epochs)
					for e := range perms {
						keys[e], perms[e] = side.key(e), side.perm(e)
					}
					for a := 0; a < epochs; a++ {
						for b := a + 1; b < epochs; b++ {
							same := perms[a].Equal(perms[b])
							switch {
							case keys[a] == keys[b] && !same:
								t.Fatalf("%v n=%d step=%d %s: epochs %d and %d share key %d but not their map",
									st, n, step, side.name, a, b, keys[a])
							case st != Random && same && keys[a] != keys[b]:
								t.Fatalf("%v n=%d step=%d %s: epochs %d and %d share a map but not a key (%d, %d)",
									st, n, step, side.name, a, b, keys[a], keys[b])
							case st == Random && keys[a] == keys[b]:
								t.Fatalf("n=%d step=%d %s: Ra epochs %d and %d share key %d", n, step, side.name, a, b, keys[a])
							}
						}
					}
				}
			}
		}
	}
}
