// Command banks stripes one benchmark across a multi-bank PIM
// organization (channel × bank group × bank) and reports how lifetime
// scales with bank count under each scheduling policy — the
// array-of-arrays experiment the paper's single-array analysis cannot
// answer: does striping across 16 banks buy ~16× lifetime?
//
//	banks -bench mult -org ddr4 -policy all -iters 20000
//	banks -banks 16 -policy wear-aware -sigma 0.1 -sample 10
//
// It writes out/banks_scaling.{csv,json} (the per-policy bank-count
// lifetime-scaling curve, single bank up to the full organization) and
// out/banks_policy.{csv,json} (the full organization's per-bank table
// per policy), plus the usual run manifest. With -sample N every bank
// records a wear trajectory (live at -serve /series and
// /wear.png?name=, exported as series_*.{csv,json} on exit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"pimendure/internal/mapping"
	"pimendure/internal/obs"
	"pimendure/internal/report"
	"pimendure/pim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("banks: ")

	run := obs.NewRun("banks", flag.CommandLine)
	benchName := flag.String("bench", "mult", "kernel: "+strings.Join(pim.KernelNames(), ", "))
	bits := flag.Int("bits", 0, "operand precision (0 = the kernel's default; bnn ignores it)")
	lanes := flag.Int("lanes", 1024, "array lanes per bank")
	rows := flag.Int("rows", 1024, "array rows per bank")
	within := flag.String("within", "Ra", "within-lane strategy: St, Ra, Bs")
	between := flag.String("between", "St", "between-lane strategy: St, Ra, Bs")
	hw := flag.Bool("hw", false, "enable hardware free-bit renaming")
	iters := flag.Int("iters", 20000, "total benchmark iterations striped across the banks")
	recompile := flag.Int("recompile", 100, "per-bank software re-mapping period")
	block := flag.Int("block", 0, "scheduling block in iterations (0 = one recompile epoch; must be a multiple of -recompile)")
	pressure := flag.Int("pressure", 0, "locality-aware per-group iterations before spilling to the next bank group (0 = fair share)")
	sigma := flag.Float64("sigma", 0, "lognormal bank-to-bank endurance variation (0 = identical banks; drawn from -seed)")
	orgName := flag.String("org", "ddr4", "organization preset: single, ddr4, hbm3")
	banks := flag.Int("banks", 0, "override the total bank count (scales the preset's hierarchy; 0 = preset size)")
	policy := flag.String("policy", "all", "scheduling policy: round-robin, wear-aware, locality-aware, all")
	sample := flag.Int("sample", 0, "record per-bank wear telemetry every N recompile epochs (0 disables)")
	seed := flag.Int64("seed", 1, "random seed (bank b simulates with seed+b; also seeds the endurance draw)")
	tech := flag.String("tech", "MRAM", "technology: MRAM, RRAM, PCM, MRAM-projected")
	outDir := flag.String("out", "out", "artifact + manifest directory")
	flag.Parse()
	if err := run.Start(); err != nil {
		log.Fatal(err)
	}

	opt := pim.Options{Lanes: *lanes, Rows: *rows, PresetOutputs: true, NANDBasis: true}
	bench, params, err := pim.NewNamed(opt, *benchName, pim.KernelParams{Bits: *bits})
	if err != nil {
		log.Fatal(err)
	}
	w, err := mapping.ParseStrategy(*within)
	if err != nil {
		log.Fatal(err)
	}
	btw, err := mapping.ParseStrategy(*between)
	if err != nil {
		log.Fatal(err)
	}
	strat := pim.Strategy{Within: w, Between: btw, Hw: *hw}

	technology, err := pim.LookupTechnology(*tech)
	if err != nil {
		log.Fatal(err)
	}

	org, err := orgNamed(*orgName)
	if err != nil {
		log.Fatal(err)
	}
	org = orgForBanks(org, *banks)
	policies, err := selectPolicies(*policy)
	if err != nil {
		log.Fatal(err)
	}

	rc := pim.RunConfig{
		Iterations: *iters, RecompileEvery: *recompile,
		Seed: *seed, SampleEvery: *sample,
	}
	cfg := pim.BankConfig{
		Org: org, BlockIters: *block, PressureIters: *pressure, Sigma: *sigma,
	}
	// One cached plan serves every (policy, bank count) point. Each
	// bank count prefixes its series, so every point of the curve names
	// its banks apart.
	cache := pim.NewPlanCache(2)
	stripe := func(p pim.BankPolicy, o pim.Organization) *pim.StripeResult {
		c := cfg
		c.Policy = p
		c.Org = o
		r := rc
		r.SeriesPrefix = fmt.Sprintf("banks%d.", o.TotalBanks())
		res, _, err := cache.BankStripe(bench, opt, r, strat, technology, c)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("benchmark:    %s\n", bench.Description)
	fmt.Printf("strategy:     %s   iterations: %d (recompile every %d)\n", strat.Name(), *iters, *recompile)
	fmt.Printf("organization: %s\n", org)

	// Lifetime-scaling curve: single bank up to the full organization,
	// per policy. The single-bank point is policy-independent (every
	// block lands on the one bank), so it is computed once and reused as
	// every policy's baseline. Every other point's bank distributions go
	// back to the plan's arena once the point is read, so the next stripe
	// reuses their counts buffers.
	points := curvePoints(org.TotalBanks())
	single := stripe(pim.RoundRobinBanks, pim.SingleBank())
	baseline := single.SystemIterationsToFailure

	scaling := report.NewTable(
		fmt.Sprintf("Lifetime scaling with bank count (%s, %s, %s)", bench.Name, strat.Name(), technology.Name),
		"policy", "banks", "banks touched", "system iters-to-failure", "scaling ×", "bank CoV", "spills", "lifetime")
	perBank := report.NewTable(
		fmt.Sprintf("Per-bank wear across %s", org),
		"policy", "bank", "ch", "grp", "iterations", "blocks", "max writes", "mean writes", "CoV", "iters-to-failure")
	var curve []scalingPoint
	var bankRows []bankRow
	for _, p := range policies {
		var res *pim.StripeResult
		for _, n := range points {
			res = single
			if n > 1 {
				res = stripe(p, orgForBanks(org, n))
			}
			pt := scalingPoint{
				Policy: p.String(), Banks: n, Org: res.Org.Name,
				Iterations:           res.TotalIterations,
				SystemItersToFailure: res.SystemIterationsToFailure,
				ScalingX:             res.SystemIterationsToFailure / baseline,
				BankCoV:              res.BankCoV,
				BanksTouched:         res.BanksTouched,
				Spills:               res.Spills,
				LifetimeDays:         lifetimeDays(res, technology),
			}
			curve = append(curve, pt)
			scaling.AddRow(pt.Policy, fmt.Sprint(pt.Banks), fmt.Sprint(pt.BanksTouched),
				report.Sci(pt.SystemItersToFailure), report.Times(pt.ScalingX),
				report.Fixed(pt.BankCoV, 3), fmt.Sprint(pt.Spills),
				fmt.Sprintf("%.2f days", pt.LifetimeDays))
			if res != single && n < org.TotalBanks() {
				release(res)
			}
		}
		// The curve ends at the full organization: its stripe is this
		// policy's per-bank table.
		for _, b := range res.Banks {
			if b.Iterations == 0 {
				continue
			}
			bankRows = append(bankRows, bankRow{
				Policy: p.String(), Bank: b.Bank, Channel: b.Channel, Group: b.Group,
				Iterations: b.Iterations, Blocks: b.Blocks,
				MaxWrites: b.MaxWrites, MeanWrites: b.MeanWrites, CoV: b.CoV,
				ItersToFailure: b.IterationsToFailure,
			})
			perBank.AddRow(p.String(), fmt.Sprint(b.Bank), fmt.Sprint(b.Channel), fmt.Sprint(b.Group),
				fmt.Sprint(b.Iterations), fmt.Sprint(b.Blocks), fmt.Sprint(b.MaxWrites),
				report.Fixed(b.MeanWrites, 1), report.Fixed(b.CoV, 3), report.Sci(b.IterationsToFailure))
		}
		if res != single {
			release(res)
		}
	}
	release(single)
	if err := scaling.WriteMarkdown(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := perBank.WriteMarkdown(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	writeCSV(filepath.Join(*outDir, "banks_scaling.csv"), scaling)
	writeCSV(filepath.Join(*outDir, "banks_policy.csv"), perBank)
	writeJSON(filepath.Join(*outDir, "banks_scaling.json"), curve)
	writeJSON(filepath.Join(*outDir, "banks_policy.json"), bankRows)

	if err := run.Finish(*outDir, map[string]any{
		"bench": *benchName, "bits": params.Bits, "lanes": *lanes, "rows": *rows,
		"within": *within, "between": *between, "hw": *hw,
		"iters": *iters, "recompile": *recompile, "block": *block,
		"pressure": *pressure, "sigma": *sigma, "org": org.String(),
		"banks": org.TotalBanks(), "policy": *policy, "sample": *sample, "tech": *tech,
	}, *seed, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// scalingPoint is one row of banks_scaling.json.
type scalingPoint struct {
	Policy               string  `json:"policy"`
	Banks                int     `json:"banks"`
	Org                  string  `json:"org"`
	Iterations           int     `json:"iterations"`
	SystemItersToFailure float64 `json:"system_iters_to_failure"`
	ScalingX             float64 `json:"scaling_x"`
	BankCoV              float64 `json:"bank_cov"`
	BanksTouched         int     `json:"banks_touched"`
	Spills               int     `json:"spills"`
	LifetimeDays         float64 `json:"lifetime_days"`
}

// bankRow is one row of banks_policy.json (touched banks only — the
// untouched ones carry an infinite projection JSON cannot encode).
type bankRow struct {
	Policy         string  `json:"policy"`
	Bank           int     `json:"bank"`
	Channel        int     `json:"channel"`
	Group          int     `json:"group"`
	Iterations     int     `json:"iterations"`
	Blocks         int     `json:"blocks"`
	MaxWrites      uint64  `json:"max_writes"`
	MeanWrites     float64 `json:"mean_writes"`
	CoV            float64 `json:"cov"`
	ItersToFailure float64 `json:"iters_to_failure"`
}

// lifetimeDays converts the system iterations-to-failure into wall-clock
// days using the benchmark's sequential latency and the device step time.
func lifetimeDays(res *pim.StripeResult, tech pim.Technology) float64 {
	for _, b := range res.Banks {
		if b.Result != nil {
			return res.SystemIterationsToFailure * float64(b.Result.Dist.StepsPerIteration) * tech.SwitchSeconds / 86400
		}
	}
	return math.NaN()
}

// release hands a stripe's bank distributions back to the plan's arena.
func release(res *pim.StripeResult) {
	for _, b := range res.Banks {
		if b.Result != nil {
			b.Result.Dist.Release()
		}
	}
}

// curvePoints enumerates the bank counts of the scaling curve: powers of
// two up to (and always including) the full organization.
func curvePoints(total int) []int {
	var out []int
	for n := 1; n < total; n *= 2 {
		out = append(out, n)
	}
	return append(out, total)
}

// orgNamed resolves an organization preset by name.
func orgNamed(name string) (pim.Organization, error) {
	for _, o := range pim.Organizations() {
		if strings.EqualFold(o.Name, name) {
			return o, nil
		}
	}
	return pim.Organization{}, fmt.Errorf("unknown organization %q (want single, ddr4, hbm3)", name)
}

// orgForBanks scales an organization preset to n total banks, keeping
// the preset's banks-per-group where it divides evenly (so the group
// hierarchy — and locality-aware spilling — stays meaningful) and
// falling back to a flat organization otherwise.
func orgForBanks(base pim.Organization, n int) pim.Organization {
	switch {
	case n <= 0 || n == base.TotalBanks():
		return base
	case n == 1:
		return pim.SingleBank()
	case n%base.Banks == 0:
		return pim.Organization{
			Name:     fmt.Sprintf("%s-%db", base.Name, n),
			Channels: 1, BankGroups: n / base.Banks, Banks: base.Banks,
			Notes: fmt.Sprintf("%s hierarchy scaled to %d banks", base.Name, n),
		}
	default:
		return pim.FlatOrganization(n)
	}
}

// selectPolicies parses -policy ("all" or one policy name).
func selectPolicies(s string) ([]pim.BankPolicy, error) {
	if strings.EqualFold(s, "all") {
		return pim.BankPolicies(), nil
	}
	p, err := pim.ParseBankPolicy(s)
	if err != nil {
		return nil, err
	}
	return []pim.BankPolicy{p}, nil
}

// writeCSV writes one report table as CSV.
func writeCSV(path string, t *report.Table) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := t.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeJSON writes one artifact as indented JSON.
func writeJSON(path string, v any) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
