package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/gates"
	"pimendure/internal/obs"
	"pimendure/internal/program"
)

// randomTrace builds a random valid trace through program.Builder and
// returns it with a row count that fits it under every strategy (+Hw
// included). Lane counts span 6–40 and 65–130, so lane bitmaps end in a
// partial word as well as a whole one. The trace mixes 2–5 random
// partial masks — pairwise non-nesting, each overlapping another — with
// the full mask, and its ops are gates (fresh or in-place outputs),
// operand writes, reads, frees and moves whose source lanes stay inside
// the array.
func randomTrace(rng *rand.Rand) (*program.Trace, int) {
	lanes := 6 + rng.Intn(35)
	if rng.Intn(2) == 0 {
		lanes = 65 + rng.Intn(66)
	}
	capacity := 6 + rng.Intn(20)
	rows := capacity + 1 + rng.Intn(4) // +Hw needs LaneBits ≤ rows−1

	b := program.NewBuilder(lanes, capacity)
	if rng.Intn(2) == 0 {
		b.SetAllocPolicy(program.LowestFirst)
	}
	masks := append([]*program.Mask{program.FullMask(lanes)}, randomMasks(rng, lanes)...)
	live, _ := b.WriteVector(2 + rng.Intn(3))
	pick := func() program.Bit { return live[rng.Intn(len(live))] }
	// other picks a live bit distinct from avoid (live always holds ≥ 2).
	other := func(avoid program.Bit) program.Bit {
		for {
			if bit := pick(); bit != avoid {
				return bit
			}
		}
	}
	kinds := gates.Kinds()
	for n := 20 + rng.Intn(60); n > 0; n-- {
		if rng.Intn(4) == 0 {
			b.SetMask(masks[rng.Intn(len(masks))])
		}
		switch op := rng.Intn(10); {
		case op < 6: // gate, into a fresh bit while there is room or in place
			k := kinds[rng.Intn(len(kinds))]
			in0, in1 := pick(), program.NoBit
			if k.Arity() == 2 {
				in1 = pick()
			}
			if op < 4 && b.Live() < capacity {
				live = append(live, b.Gate(k, in0, in1))
			} else {
				b.GateInto(k, in0, in1, other(in0))
			}
		case op == 6: // operand write, into a fresh bit when one is free
			if b.Live() < capacity && rng.Intn(2) == 0 {
				live = append(live, b.Alloc())
				b.Write(live[len(live)-1])
			} else {
				b.Write(pick())
			}
		case op == 7:
			b.Read(pick())
		case op == 8: // free, keeping two bits live
			if len(live) > 2 {
				i := rng.Intn(len(live))
				b.Free(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		default: // move, shifted only as far as the mask stays in the array
			m := b.CurrentMask().Lanes()
			lo, hi := -m[0], lanes-1-m[len(m)-1]
			src := pick()
			b.Move(src, other(src), lo+rng.Intn(hi-lo+1))
		}
	}
	return b.Trace(), rows
}

// randomMasks draws 2–5 random partial lane masks, none a subset of
// another and each sharing a lane with another.
func randomMasks(rng *rand.Rand, lanes int) []*program.Mask {
	for {
		out := make([]*program.Mask, 2+rng.Intn(4))
		for i := range out {
			m := program.NewMask(lanes)
			for l := 0; l < lanes; l++ {
				if rng.Intn(2) == 0 {
					m.Set(l)
				}
			}
			out[i] = m
		}
		if antichainOverlapping(out) {
			return out
		}
	}
}

// antichainOverlapping reports whether every mask is partial, none is a
// subset of another, and each shares a lane with another.
func antichainOverlapping(masks []*program.Mask) bool {
	for i, m := range masks {
		if m.Count() == 0 || m.Full() {
			return false
		}
		overlaps := false
		for j, o := range masks {
			if i == j {
				continue
			}
			if m.Subset(o) {
				return false
			}
			for _, l := range m.Lanes() {
				overlaps = overlaps || o.Get(l)
			}
		}
		if !overlaps {
			return false
		}
	}
	return true
}

// Every fast path must agree bit for bit with both oracles on traces
// nobody hand-picked: for 40 random traces × both preset policies × all
// 18 configurations, WearPlan.Simulate at 1 and 3 workers (unsampled
// and sampled), a Stepper, SimulateReference and BruteForce produce the
// same distribution, over an iteration count the recompile period does
// not divide. A failure names the seed that rebuilds its trace.
func TestRandomTracesAgreeAcrossEngines(t *testing.T) {
	const seeds = 40
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, rows := randomTrace(rng)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: generated an invalid trace: %v", seed, err)
		}
		every := 3 + rng.Intn(5)
		iters := every*(2+rng.Intn(4)) + 1 + rng.Intn(every-1)
		for _, preset := range []bool{false, true} {
			sim := core.SimConfig{
				Rows: rows, PresetOutputs: preset,
				Iterations: iters, RecompileEvery: every,
				Seed: seed, ShiftStep: rng.Intn(3),
			}
			plan := core.NewWearPlan(tr, rows, preset)
			for _, strat := range core.AllConfigs() {
				name := fmt.Sprintf("seed %d (lanes %d, rows %d, %d ops, iters %d/%d) preset=%v %s",
					seed, tr.Lanes, rows, len(tr.Ops), iters, every, preset, strat.Name())
				ref, err := core.SimulateReference(tr, sim, strat)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				brute, _, err := core.BruteForce(tr, sim, strat, nil)
				if err != nil {
					t.Fatalf("%s: brute force: %v", name, err)
				}
				if !brute.Equal(ref) {
					t.Errorf("%s: BruteForce diverges from SimulateReference", name)
				}
				for _, w := range []int{1, 3} {
					for _, sampled := range []bool{false, true} {
						run := sim
						run.Workers = w
						if sampled {
							run.Sampler = core.NewWearSampler("test.random.wear", 2, 1e6)
						}
						d, err := plan.Simulate(run, strat)
						if err != nil {
							t.Fatalf("%s workers=%d sampled=%v: %v", name, w, sampled, err)
						}
						if !d.Equal(ref) {
							t.Errorf("%s workers=%d sampled=%v: Simulate diverges from SimulateReference",
								name, w, sampled)
						}
						d.Release()
						if sampled {
							obs.RemoveSeries(run.Sampler.Series().Name())
						}
					}
				}
				st, err := plan.NewStepper(sim, strat)
				if err != nil {
					t.Fatalf("%s: stepper: %v", name, err)
				}
				for _, n := range epochLengths(iters, every) {
					st.Step(n)
				}
				if got := st.MaxWrites(); got != ref.Max() {
					t.Errorf("%s: stepper MaxWrites %d, reference max %d", name, got, ref.Max())
				}
				stepped, err := st.Finish()
				if err != nil {
					t.Fatalf("%s: stepper finish: %v", name, err)
				}
				if !stepped.Equal(ref) {
					t.Errorf("%s: Stepper diverges from SimulateReference", name)
				}
			}
		}
	}
}
