package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pimendure/internal/core"
	"pimendure/internal/gates"
	"pimendure/internal/mapping"
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
func randomTrace(rng *rand.Rand) (*program.Trace, int) { return buildRandomTrace(rng, true) }

// randomFullTrace is randomTrace with the full mask as its only mask:
// every write lands on every lane, the shape of the paper's parallel
// multiplication.
func randomFullTrace(rng *rand.Rand) (*program.Trace, int) { return buildRandomTrace(rng, false) }

// buildRandomTrace is randomTrace, with the random partial masks drawn
// only when partial is set.
func buildRandomTrace(rng *rand.Rand, partial bool) (*program.Trace, int) {
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
	masks := []*program.Mask{program.FullMask(lanes)}
	if partial {
		masks = append(masks, randomMasks(rng, lanes)...)
	}
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
// not divide, and that distribution holds the trace's cell writes once
// per iteration. A failure names the seed that rebuilds its trace.
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
			// Strategies only move writes between cells: every one of them
			// lands the trace's cell writes once per iteration.
			total := uint64(tr.CellWrites(preset)) * uint64(iters)
			for _, strat := range core.AllConfigs() {
				name := fmt.Sprintf("seed %d (lanes %d, rows %d, %d ops, iters %d/%d) preset=%v %s",
					seed, tr.Lanes, rows, len(tr.Ops), iters, every, preset, strat.Name())
				ref, err := core.SimulateReference(tr, sim, strat)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				if got := ref.Total(); got != total {
					t.Errorf("%s: %d total writes, want %d cell writes × %d iterations", name, got, tr.CellWrites(preset), iters)
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

// renamerHist replays n iterations of tr op by op through a fresh
// hardware renamer, with each op's logical row mapped through within
// first, and returns the per-(mask, physical row) write histogram
// [mask*rows+physRow] — the +Hw epoch as the serial reference runs it.
func renamerHist(tr *program.Trace, preset bool, rows int, within *mapping.Perm, n int) []uint64 {
	hw := mapping.NewHwRenamer(rows)
	hist := make([]uint64, len(tr.Masks)*rows)
	for it := 0; it < n; it++ {
		for _, op := range tr.Ops {
			w := op.WritesPerLane(preset)
			if w == 0 {
				continue
			}
			arch := within.Apply(int(op.Out))
			phys := hw.Lookup(arch)
			if tr.Mask(op.Mask).Full() {
				phys = hw.RenameOnWrite(arch)
			}
			hist[int(op.Mask)*rows+phys] += uint64(w)
		}
	}
	return hist
}

// The relabeling identity the shared +Hw replays rest on: the renamer never
// compares row addresses, so an epoch run under within map π writes
// exactly the identity-map epoch's histogram with every physical row r
// moved to π̂(r) — π on the architectural rows, the spare row fixed. Over
// the random-trace seeds, both presets, epoch lengths {1, 7, 100, 1000}
// and three random maps each.
func TestHwHistogramRelabelsWithWithinMap(t *testing.T) {
	const seeds = 40
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, rows := randomTrace(rng)
		for _, preset := range []bool{false, true} {
			for _, n := range []int{1, 7, 100, 1000} {
				id := renamerHist(tr, preset, rows, mapping.Identity(rows-1), n)
				for k := 0; k < 3; k++ {
					pi := mapping.RandomPerm(rows-1, rng)
					got := renamerHist(tr, preset, rows, pi, n)
					for i, c := range id {
						m, r := i/rows, i%rows
						if r < rows-1 {
							r = pi.Apply(r)
						}
						if got[m*rows+r] != c {
							t.Fatalf("seed %d preset=%v n=%d map %d: mask %d row %d → %d holds %d, identity epoch row %d holds %d",
								seed, preset, n, k, m, i%rows, r, got[m*rows+r], i%rows, c)
						}
					}
				}
			}
		}
	}
}

// Metamorphic properties on traces with only full-mask writes, the shape
// whose +Hw and software landings never generate a between-lane map: a
// full lane mask is invariant under every lane permutation, so X×St,
// X×Ra and X×Bs give one distribution for each within strategy X, with
// and without +Hw, and each equals SimulateReference. Re-mapping moves
// writes and never adds or drops them, so all 18 configurations write
// the same total. A failure names the seed that rebuilds its trace.
func TestFullMaskTracesIgnoreBetweenMaps(t *testing.T) {
	const seeds = 40
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, rows := randomFullTrace(rng)
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: generated an invalid trace: %v", seed, err)
		}
		every := 3 + rng.Intn(5)
		iters := every*(2+rng.Intn(4)) + 1 + rng.Intn(every-1)
		for _, preset := range []bool{false, true} {
			sim := core.SimConfig{
				Rows: rows, PresetOutputs: preset,
				Iterations: iters, RecompileEvery: every,
				Seed: seed, ShiftStep: rng.Intn(3), Workers: 3,
			}
			plan := core.NewWearPlan(tr, rows, preset)
			if n := plan.PartialEntries(); n != 0 {
				t.Fatalf("seed %d: full-mask trace has %d partial entries", seed, n)
			}
			name := fmt.Sprintf("seed %d (lanes %d, rows %d, %d ops, iters %d/%d) preset=%v",
				seed, tr.Lanes, rows, len(tr.Ops), iters, every, preset)
			first := map[core.StrategyConfig]*core.WriteDist{}
			var total uint64
			for i, strat := range core.AllConfigs() {
				ref, err := core.SimulateReference(tr, sim, strat)
				if err != nil {
					t.Fatalf("%s %s: reference: %v", name, strat.Name(), err)
				}
				d, err := plan.Simulate(sim, strat)
				if err != nil {
					t.Fatalf("%s %s: %v", name, strat.Name(), err)
				}
				if !d.Equal(ref) {
					t.Errorf("%s %s: Simulate diverges from SimulateReference", name, strat.Name())
				}
				key := core.StrategyConfig{Within: strat.Within, Between: mapping.Static, Hw: strat.Hw}
				if f, ok := first[key]; !ok {
					first[key] = d
				} else if !d.Equal(f) {
					t.Errorf("%s: %s differs from %s", name, strat.Name(), key.Name())
				}
				if i == 0 {
					total = d.Total()
				} else if got := d.Total(); got != total {
					t.Errorf("%s %s: total writes %d, St×St wrote %d", name, strat.Name(), got, total)
				}
			}
		}
	}
}

// HasPartialMasks is the test pim's sweeps use to share one distribution
// across X×St, X×Ra and X×Bs, so it must be false exactly when the plan
// has no partial-mask cells: on every random full-mask trace (the shape
// TestFullMaskTracesIgnoreBetweenMaps proves the identity on), and in
// agreement with PartialEntries on random traces that mix in partial
// masks.
func TestHasPartialMasks(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, partial := range []bool{false, true} {
			tr, rows := buildRandomTrace(rand.New(rand.NewSource(seed)), partial)
			for _, preset := range []bool{false, true} {
				plan := core.NewWearPlan(tr, rows, preset)
				if got, want := plan.HasPartialMasks(), plan.PartialEntries() > 0; got != want || (!partial && got) {
					t.Errorf("seed %d partial=%v preset=%v: HasPartialMasks %v, %d partial entries",
						seed, partial, preset, got, plan.PartialEntries())
				}
			}
		}
	}
}
