// Package mapping implements the paper's load-balancing strategies (§3.2):
// software logical-to-physical address re-mapping — Static (St), Random
// shuffling (Ra) and Byte-shifting (Bs), applied independently within lanes
// (bit addresses) and between lanes — plus the hardware free-bit renaming
// scheme (Hw) modelled on register renaming.
//
// Software maps are bijections refreshed at recompile epochs; the Schedule
// type derives each epoch's permutations deterministically from a seed so
// the fast wear engine and the brute-force functional simulator see
// byte-identical mapping sequences.
package mapping

import (
	"fmt"
	"math/rand"
)

// Strategy is a software re-mapping policy.
type Strategy uint8

const (
	// Static applies no re-mapping (the paper's St).
	Static Strategy = iota
	// Random draws a fresh uniform permutation every recompile epoch
	// (the paper's Ra).
	Random
	// ByteShift rotates the mapping by a whole number of bytes each
	// epoch (the paper's Bs), keeping byte-addressable accesses aligned.
	ByteShift
)

// String returns the paper's abbreviation for the strategy.
func (s Strategy) String() string {
	switch s {
	case Static:
		return "St"
	case Random:
		return "Ra"
	case ByteShift:
		return "Bs"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// Strategies lists all software strategies in the paper's order.
func Strategies() []Strategy { return []Strategy{Static, Random, ByteShift} }

// ParseStrategy converts the paper abbreviation ("St", "Ra", "Bs") to a
// Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "St", "st", "static":
		return Static, nil
	case "Ra", "ra", "random":
		return Random, nil
	case "Bs", "bs", "byteshift":
		return ByteShift, nil
	}
	return Static, fmt.Errorf("mapping: unknown strategy %q", s)
}

// Perm is a bijection of n addresses; Apply maps logical to physical.
type Perm struct {
	l2p []int32
}

// Identity returns the identity permutation over n addresses.
func Identity(n int) *Perm {
	p := &Perm{l2p: make([]int32, n)}
	for i := range p.l2p {
		p.l2p[i] = int32(i)
	}
	return p
}

// RandomPerm returns a uniform permutation drawn from rng.
func RandomPerm(n int, rng *rand.Rand) *Perm {
	p := Identity(n)
	rng.Shuffle(n, func(i, j int) {
		p.l2p[i], p.l2p[j] = p.l2p[j], p.l2p[i]
	})
	return p
}

// NewPerm allocates an uninitialized permutation over n addresses for use
// as reusable scratch with the Set* fill methods and the Schedule's
// EpochWithinInto/EpochBetweenInto.
func NewPerm(n int) *Perm { return &Perm{l2p: make([]int32, n)} }

// SetIdentity fills p with the identity mapping in place.
func (p *Perm) SetIdentity() {
	for i := range p.l2p {
		p.l2p[i] = int32(i)
	}
}

// SetShift fills p with the rotation i → (i + k) mod n in place.
func (p *Perm) SetShift(k int) {
	n := len(p.l2p)
	k = rotation(k, n)
	for i := range p.l2p {
		p.l2p[i] = int32((i + k) % n)
	}
}

// rotation reduces a shift of k addresses to its rotation in [0, n).
func rotation(k, n int) int { return ((k % n) + n) % n }

// SetRandom fills p with a uniform permutation drawn from rng in place —
// the same Fisher–Yates sequence as RandomPerm, so a reused scratch
// permutation is bit-identical to a freshly allocated one.
func (p *Perm) SetRandom(rng *rand.Rand) {
	p.SetIdentity()
	rng.Shuffle(len(p.l2p), func(i, j int) {
		p.l2p[i], p.l2p[j] = p.l2p[j], p.l2p[i]
	})
}

// ShiftPerm returns the rotation i → (i + k) mod n.
func ShiftPerm(n, k int) *Perm {
	p := NewPerm(n)
	p.SetShift(k)
	return p
}

// Len returns the domain size.
func (p *Perm) Len() int { return len(p.l2p) }

// Apply maps a logical address to its physical address.
func (p *Perm) Apply(i int) int { return int(p.l2p[i]) }

// Inverse returns the physical-to-logical inverse permutation.
func (p *Perm) Inverse() *Perm {
	inv := &Perm{l2p: make([]int32, len(p.l2p))}
	for l, ph := range p.l2p {
		inv.l2p[ph] = int32(l)
	}
	return inv
}

// Equal reports whether two permutations are the same bijection.
func (p *Perm) Equal(o *Perm) bool {
	if p == o {
		return true
	}
	if o == nil || len(p.l2p) != len(o.l2p) {
		return false
	}
	for i, v := range p.l2p {
		if o.l2p[i] != v {
			return false
		}
	}
	return true
}

// IsBijection verifies the permutation hits every address exactly once.
func (p *Perm) IsBijection() bool {
	seen := make([]bool, len(p.l2p))
	for _, ph := range p.l2p {
		if ph < 0 || int(ph) >= len(p.l2p) || seen[ph] {
			return false
		}
		seen[ph] = true
	}
	return true
}

// DefaultShiftStep is one byte: the Bs strategy shifts mappings by whole
// bytes so that byte-addressable reads and writes stay aligned (§3.2).
const DefaultShiftStep = 8

// Schedule deterministically generates the software mapping pair for every
// recompile epoch. Rows is the physical bit-address domain within a lane
// (the array dimension software can spread workspace over); Lanes is the
// lane domain.
type Schedule struct {
	Rows, Lanes int
	// Within re-maps bit addresses inside each lane; Between re-maps
	// lanes (§3.2 "Load Balancing within Lanes" / "Between Lanes").
	Within, Between Strategy
	// Seed makes the random permutation sequence reproducible.
	Seed int64
	// ShiftStep is the Bs rotation per epoch; 0 means DefaultShiftStep.
	ShiftStep int
}

// Name returns the paper's configuration label, e.g. "RaxBs".
func (s Schedule) Name() string {
	return s.Within.String() + "x" + s.Between.String()
}

func (s Schedule) step() int {
	if s.ShiftStep == 0 {
		return DefaultShiftStep
	}
	return s.ShiftStep
}

// Salts separating the within-lane and between-lane random streams.
const (
	saltWithin  = 0x5749544849
	saltBetween = 0x42455457
)

// EpochWithin returns the within-lane permutation for a recompile epoch.
func (s Schedule) EpochWithin(epoch int) *Perm {
	return epochPermInto(s.Within, s.Rows, epoch, s.Seed, saltWithin, s.step(), nil, nil)
}

// EpochBetween returns the between-lane permutation for a recompile epoch.
func (s Schedule) EpochBetween(epoch int) *Perm {
	return epochPermInto(s.Between, s.Lanes, epoch, s.Seed, saltBetween, s.step(), nil, nil)
}

// EpochWithinInto is EpochWithin with caller-owned scratch: p is filled in
// place when its size matches (reallocated otherwise) and rng, when
// non-nil, is re-seeded instead of allocating a fresh source per epoch.
// The filled permutation — always returned — is bit-identical to
// EpochWithin's for every epoch.
func (s Schedule) EpochWithinInto(epoch int, p *Perm, rng *rand.Rand) *Perm {
	return epochPermInto(s.Within, s.Rows, epoch, s.Seed, saltWithin, s.step(), p, rng)
}

// EpochBetweenInto is EpochBetween with caller-owned scratch, with the
// same reuse and bit-identity contract as EpochWithinInto.
func (s Schedule) EpochBetweenInto(epoch int, p *Perm, rng *rand.Rand) *Perm {
	return epochPermInto(s.Between, s.Lanes, epoch, s.Seed, saltBetween, s.step(), p, rng)
}

// WithinKey names the within-lane permutation of a recompile epoch:
// epochs with equal keys get equal permutations, so the wear engine
// groups epochs by key instead of comparing maps. St and Bs keys are
// exact — distinct keys mean distinct maps, so a Bs rotation period
// collapses to one key per rotation. An Ra key is the epoch itself:
// every Ra epoch draws afresh, and a draw that happens to repeat an
// earlier map keeps its own key.
func (s Schedule) WithinKey(epoch int) int { return epochKey(s.Within, s.Rows, epoch, s.step()) }

// BetweenKey is WithinKey for the between-lane permutation.
func (s Schedule) BetweenKey(epoch int) int { return epochKey(s.Between, s.Lanes, epoch, s.step()) }

// epochKey names the permutation epochPermInto builds for the same
// arguments.
func epochKey(st Strategy, n, epoch, step int) int {
	switch st {
	case Static:
		return 0
	case Random:
		return epoch
	case ByteShift:
		return rotation(epoch*step, n)
	}
	panic(fmt.Sprintf("mapping: unknown strategy %d", st))
}

func epochPermInto(st Strategy, n, epoch int, seed, salt int64, step int, p *Perm, rng *rand.Rand) *Perm {
	if p == nil || len(p.l2p) != n {
		p = NewPerm(n)
	}
	switch st {
	case Static:
		p.SetIdentity()
		return p
	case Random:
		if epoch == 0 {
			// Epoch 0 is the as-compiled layout for every strategy,
			// so all configurations share the same first epoch.
			p.SetIdentity()
			return p
		}
		// Re-seeding a reused rand.Rand replays the exact stream a fresh
		// rand.New(rand.NewSource(seed)) would produce, so scratch reuse
		// cannot change any permutation.
		if rng == nil {
			rng = rand.New(rand.NewSource(mix(seed, salt, int64(epoch))))
		} else {
			rng.Seed(mix(seed, salt, int64(epoch)))
		}
		p.SetRandom(rng)
		return p
	case ByteShift:
		p.SetShift(epoch * step)
		return p
	}
	panic(fmt.Sprintf("mapping: unknown strategy %d", st))
}

// ByteAccessCost quantifies the paper's Fig. 8: after within-lane
// re-mapping, how expensive is a standard byte-addressable access to an
// operand whose logical bits are `bits`? For a row-parallel architecture a
// read returns whole bytes of physical addresses, so the cost is the
// number of distinct physical bytes touched; `ordered` additionally
// reports whether the physical addresses preserve the logical order
// (otherwise external post-processing must re-permute the bits).
//
// Byte-shifting keeps cost minimal (⌈b/8⌉ bytes, ordered, when the operand
// is byte-aligned); random shuffling scatters the operand across many
// bytes in arbitrary order.
func ByteAccessCost(p *Perm, bits []int) (bytesTouched int, ordered bool) {
	seen := map[int]bool{}
	ordered = true
	prev := -1
	for _, b := range bits {
		phys := p.Apply(b)
		seen[phys/8] = true
		if phys <= prev {
			ordered = false
		}
		prev = phys
	}
	return len(seen), ordered
}

// mix combines seed, salt and epoch into an rng seed (splitmix64 finalizer).
func mix(seed, salt, epoch int64) int64 {
	z := uint64(seed) ^ uint64(salt)*0x9E3779B97F4A7C15 ^ uint64(epoch)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
