// Command experiments regenerates every table and figure of the paper's
// evaluation (Sec. VII), the two extension studies documented in DESIGN.md
// and the robustness sweeps:
//
//	experiments -exp table1             // Table I, M=30 and M=40
//	experiments -exp fig8               // Fig. 8 series, M=30
//	experiments -exp fig9               // Fig. 9 series, M=40
//	experiments -exp fig10              // Fig. 10 trade-off curves
//	experiments -exp lstm               // X1: predictor accuracy comparison
//	experiments -exp ablation           // X2: autoencoder / weight-sharing ablation
//	experiments -exp faultmatrix        // X3: allocators x fault classes degradation matrix
//	experiments -exp faultsweep         // allocators x MTTF: availability and retry cost
//	experiments -exp scenarios          // allocators x registered scenarios
//	experiments -exp all                // every entry above but faultsweep and scenarios
//
// -scale bench runs the 20x-reduced configuration (seconds); -scale full
// reproduces the 95,000-job operating point. -seeds is a comma list with a-b
// ranges (default 1): with one seed a table prints each value, with several
// it prints median [min, max] across the seeds.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"hierdrl"
)

// setup is what every experiment reads from the flags.
type setup struct {
	scale func(m int) hierdrl.Scale
	seeds []int64
}

// experiments is the -exp table, in -exp all order. solo entries run only
// when named.
var experiments = []struct {
	name string
	run  func(setup)
	solo bool
}{
	{name: "table1", run: table1},
	{name: "fig8", run: func(su setup) { figSeries(8, 30, su) }},
	{name: "fig9", run: func(su setup) { figSeries(9, 40, su) }},
	{name: "fig10", run: fig10},
	{name: "lstm", run: lstmStudy},
	{name: "ablation", run: ablation},
	{name: "faultmatrix", run: faultMatrix},
	{name: "faultsweep", run: faultSweep, solo: true},
	{name: "scenarios", run: scenarioSweep, solo: true},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, " | ")+" | all")
	scaleName := flag.String("scale", "bench", "bench (20x reduced) or full (95,000 jobs)")
	seedList := flag.String("seeds", "1", "random seeds: a comma list with a-b ranges, e.g. 1-3,7")
	flag.Parse()

	su := setup{scale: map[string]func(int) hierdrl.Scale{"bench": hierdrl.BenchScale, "full": hierdrl.FullScale}[*scaleName]}
	if su.scale == nil {
		log.Fatalf("unknown scale %q", *scaleName)
	}
	var err error
	if su.seeds, err = parseSeeds(*seedList); err != nil {
		log.Fatal(err)
	}
	ran := false
	for _, e := range experiments {
		if e.name == *exp || (*exp == "all" && !e.solo) {
			e.run(su)
			ran = true
		}
	}
	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
}

// parseSeeds reads a comma list of non-negative seeds and a-b ranges
// ("1-3,7"); a range spans fewer than 10,000 seeds.
func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(list, ",") {
		first, last, isRange := strings.Cut(part, "-")
		if !isRange {
			last = first
		}
		a, errA := strconv.ParseInt(first, 10, 64)
		b, errB := strconv.ParseInt(last, 10, 64)
		if errA != nil || errB != nil || b < a || b-a >= 10000 {
			return nil, fmt.Errorf("bad -seeds element %q: want N or A-B with A <= B < A+10000", part)
		}
		for s := a; s <= b; s++ {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}

// run executes cells over the seeds, exiting on error.
func (su setup) run(what string, cells []hierdrl.Cell) [][]*hierdrl.Result {
	res, err := hierdrl.Study{Cells: cells, Seeds: su.seeds}.Run()
	if err != nil {
		log.Fatalf("%s: %v", what, err)
	}
	return res
}

// each evaluates one metric at every seed index.
func (su setup) each(metric func(s int) float64) []float64 {
	xs := make([]float64, len(su.seeds))
	for s := range xs {
		xs[s] = metric(s)
	}
	return xs
}

// stat formats one metric across seeds with a fmt verb: the value itself for
// one seed, "median [min, max]" for several.
func stat(verb string, xs []float64) string {
	if len(xs) == 1 {
		return fmt.Sprintf(verb, xs[0])
	}
	med, lo, hi := hierdrl.MedianRange(xs)
	bare := func(x float64) string { return strings.TrimSpace(fmt.Sprintf(verb, x)) }
	return fmt.Sprintf(verb, med) + " [" + bare(lo) + ", " + bare(hi) + "]"
}

// A column is one Summary metric of a table: its header, width and precision.
type column struct {
	head        string
	width, prec int
	of          func(hierdrl.Summary) float64
}

var (
	colAvail   = column{"avail", 8, 4, func(s hierdrl.Summary) float64 { return s.Availability }}
	colAvgLat  = column{"avgLat(s)", 10, 1, func(s hierdrl.Summary) float64 { return s.AvgLatencySec }}
	colEnergy  = column{"E(kWh)", 10, 2, func(s hierdrl.Summary) float64 { return s.EnergykWh }}
	colRetried = column{"retried", 9, 0, func(s hierdrl.Summary) float64 { return float64(s.JobsRetried) }}
	colLost    = column{"lost", 9, 0, func(s hierdrl.Summary) float64 { return float64(s.JobsLost) }}
)

// summaryTable runs cells over the seeds and prints a header (head, then the
// column heads) and one row per cell: its label, then each column.
func summaryTable(su setup, what string, cells []hierdrl.Cell, head string, label func(hierdrl.Cell) string, cols []column) [][]*hierdrl.Result {
	res := su.run(what, cells)
	fmt.Print(head)
	for _, c := range cols {
		fmt.Printf(" %*s", c.width, c.head)
	}
	fmt.Println()
	for i, runs := range res {
		fmt.Print(label(cells[i]))
		for _, c := range cols {
			fmt.Print(" " + stat(fmt.Sprintf("%%%d.%df", c.width, c.prec), su.each(func(s int) float64 { return c.of(runs[s].Summary) })))
		}
		fmt.Println()
	}
	return res
}

// comparisonCells are the paper's three systems on one synthetic workload:
// Table I with every = 0, the Fig. 8/9 accumulated series every > 0 jobs.
func comparisonCells(m int, sc hierdrl.Scale, every int) []hierdrl.Cell {
	var cells []hierdrl.Cell
	for _, cfg := range []hierdrl.Config{hierdrl.RoundRobin(m), hierdrl.DRLOnly(m), hierdrl.Hierarchical(m)} {
		cfg.CheckpointEvery = every
		cells = append(cells, hierdrl.Cell{Name: cfg.Name, Config: cfg, Scale: sc})
	}
	return cells
}

func table1(su setup) {
	fmt.Println("== Table I: energy / accumulated latency / average power ==")
	energy := func(s hierdrl.Summary) float64 { return s.EnergykWh }
	for _, m := range []int{30, 40} {
		fmt.Printf("\n-- M = %d, jobs = %d --\n", m, su.scale(m).Jobs)
		res := summaryTable(su, "table1", comparisonCells(m, su.scale(m), 0), fmt.Sprintf("%-14s", "policy"),
			func(c hierdrl.Cell) string { return fmt.Sprintf("%-14s", c.Name) }, []column{
				{"Energy (kWh)", 14, 2, energy},
				{"Latency (10^6 s)", 18, 2, func(s hierdrl.Summary) float64 { return s.AccLatencySec / 1e6 }},
				{"Power (W)", 12, 2, func(s hierdrl.Summary) float64 { return s.AvgPowerW }},
			})
		// change is hierarchical's per-seed relative difference to system b in percent.
		change := func(b int, of func(hierdrl.Summary) float64) string {
			return stat("%+.2f", su.each(func(s int) float64 {
				x, y := of(res[2][s].Summary), of(res[b][s].Summary)
				return 100 * (x - y) / y
			}))
		}
		fmt.Printf("hierarchical vs round-robin: %s%% energy\n", change(0, energy))
		fmt.Printf("hierarchical vs drl-only:    %s%% energy, %s%% latency\n", change(1, energy),
			change(1, func(s hierdrl.Summary) float64 { return s.AccLatencySec }))
	}
}

func figSeries(fig, m int, su setup) {
	sc := su.scale(m)
	fmt.Printf("\n== Fig. %d: accumulated latency & energy vs #jobs (M = %d) ==\n", fig, m)
	res := su.run(fmt.Sprintf("fig%d", fig), comparisonCells(m, sc, max(1, sc.Jobs/19)))
	fmt.Printf("%-8s | %-26s | %-26s | %-26s\n", "", "round-robin", "drl-only", "hierarchical")
	fmt.Printf("%-8s | %12s %13s | %12s %13s | %12s %13s\n",
		"jobs", "latency(s)", "energy(kWh)", "latency(s)", "energy(kWh)", "latency(s)", "energy(kWh)")
	// Every run completes the same jobs, so every series has the same length.
	for i := range res[0][0].Checkpoints {
		fmt.Printf("%-8d", res[0][0].Checkpoints[i].Jobs)
		for _, runs := range res {
			fmt.Printf(" | %s %s",
				stat("%12.0f", su.each(func(s int) float64 { return runs[s].Checkpoints[i].AccLatencySec })),
				stat("%13.2f", su.each(func(s int) float64 { return runs[s].Checkpoints[i].EnergykWh })))
		}
		fmt.Println()
	}
}

// tradeoffCells is the Fig. 10 grid, lambda-major: per lambda the
// hierarchical framework, then the fixed 30/60/90 s timeout baselines.
// lambda couples the reward weights coherently: the global tier uses
// W1 = 2(1-lambda) (power) and W2 = 2*lambda (latency proxy); the
// hierarchical local tier additionally sets its Eqn. (5) weight w = 1-lambda.
// The fixed-timeout baselines have no local knob — exactly why the paper
// calls their curves "not complete".
func tradeoffCells(m int, sc hierdrl.Scale, lambdas []float64) []hierdrl.Cell {
	var cells []hierdrl.Cell
	for _, lam := range lambdas {
		hier := hierdrl.Hierarchical(m)
		hier.LocalRL.PowerWeight = 1 - lam
		for _, cfg := range []hierdrl.Config{hier, hierdrl.FixedTimeoutBaseline(m, 30),
			hierdrl.FixedTimeoutBaseline(m, 60), hierdrl.FixedTimeoutBaseline(m, 90)} {
			cfg.Global.W1, cfg.Global.W2 = 2*(1-lam), 2*lam
			cells = append(cells, hierdrl.Cell{Name: fmt.Sprintf("%s/lambda=%v", cfg.Name, lam), Config: cfg, Scale: sc})
		}
	}
	return cells
}

func fig10(su setup) {
	m, sc := 30, su.scale(30)
	// The full sweep is expensive (16 end-to-end runs); thin the workload.
	sc.Jobs, sc.WarmupJobs = max(2000, sc.Jobs/4), max(500, sc.WarmupJobs/4)
	fmt.Printf("\n== Fig. 10: latency/energy trade-off (M = %d, jobs = %d) ==\n", m, sc.Jobs)
	lambdas := []float64{0.15, 0.35, 0.55, 0.75}
	res := su.run("fig10", tradeoffCells(m, sc, lambdas))
	names := []string{"hierarchical", "fixed-30", "fixed-60", "fixed-90"} // tradeoffCells' systems
	for c, name := range names {
		fmt.Printf("%-14s", name)
		for k := range lambdas {
			runs := res[k*len(names)+c]
			fmt.Printf("  (lat=%ss, E=%skJ)",
				stat("%.0f", su.each(func(s int) float64 { return runs[s].Summary.AvgLatencySec })),
				stat("%.0f", su.each(func(s int) float64 { return runs[s].Summary.AvgEnergyJPerJob / 1e3 })))
		}
		fmt.Println()
	}
	// The paper's "smallest area against the axes" comparison, reported as
	// dominated hypervolume (larger = better trade-off curve) against each
	// seed's own reference point.
	fmt.Println("dominated hypervolume (larger = better):")
	parts := make([]string, len(names))
	for c, name := range names {
		parts[c] = name + " " + stat("%.3g", su.each(func(s int) float64 {
			var refLat, refE float64
			var curve []hierdrl.TradeoffPoint
			for i, runs := range res {
				p := runs[s].Tradeoff(names[i%len(names)], lambdas[i/len(names)])
				refLat, refE = max(refLat, p.AvgLatencySec), max(refE, p.AvgEnergyJPerJob)
				if i%len(names) == c {
					curve = append(curve, p)
				}
			}
			return hierdrl.HypervolumeOf(curve, refLat*1.05, refE*1.05)
		}))
	}
	fmt.Println("  " + strings.Join(parts, " | "))
}

func lstmStudy(su setup) {
	fmt.Println("\n== X1: workload predictor accuracy (one-step inter-arrival) ==")
	n := 3000
	if su.scale(30).Jobs > 10000 {
		n = 10000
	}
	scores := make([][]hierdrl.PredictorScore, len(su.seeds)) // [seed][predictor]
	for s, seed := range su.seeds {
		var err error
		if scores[s], err = hierdrl.RunPredictorComparison(n, seed); err != nil {
			log.Fatalf("lstm study: %v", err)
		}
	}
	fmt.Printf("%-14s %12s %12s %10s\n", "predictor", "RMSE(log)", "MAE(s)", "samples")
	for i, p := range scores[0] {
		fmt.Printf("%-14s %s %s %s\n", p.Name,
			stat("%12.4f", su.each(func(s int) float64 { return scores[s][i].RMSELog })),
			stat("%12.2f", su.each(func(s int) float64 { return scores[s][i].MAE })),
			stat("%10.0f", su.each(func(s int) float64 { return float64(scores[s][i].Samples) })))
	}
}

func ablation(su setup) {
	fmt.Println("\n== X2: Fig. 6 architecture ablation (offline Q-regression) ==")
	steps := 300
	if su.scale(30).Jobs > 10000 {
		steps = 1500
	}
	results := make([][]hierdrl.AblationResult, len(su.seeds)) // [seed][variant]
	for s, seed := range su.seeds {
		var err error
		if results[s], err = hierdrl.RunAblation(30, steps, []int{2, 3, 5}, seed); err != nil {
			log.Fatalf("ablation: %v", err)
		}
	}
	fmt.Printf("%-20s %4s %10s %12s\n", "variant", "K", "params", "final loss")
	for i, r := range results[0] {
		fmt.Printf("%-20s %4d %s %s\n", r.Variant, r.K,
			stat("%10.0f", su.each(func(s int) float64 { return float64(results[s][i].Params) })),
			stat("%12.5f", su.each(func(s int) float64 { return results[s][i].FinalLoss })))
	}
}

// heuristicAllocs are the non-learning allocation policies the fault sweeps
// compare.
var heuristicAllocs = []hierdrl.AllocPolicy{hierdrl.AllocRoundRobin, hierdrl.AllocRandom, hierdrl.AllocLeastLoaded, hierdrl.AllocPackFit}

// faultCell is one fault-sweep cell: alloc under fault model faults with
// the given MTTF, a 600 s mean repair time, capped-backoff retries and a
// fixed 60 s local timeout, on sc's trace without a warmup (no learner).
func faultCell(name string, m int, sc hierdrl.Scale, alloc hierdrl.AllocPolicy, faults hierdrl.FaultKind, mttf float64) hierdrl.Cell {
	sc.WarmupJobs = 0
	return hierdrl.Cell{Name: name, Scale: sc, Config: hierdrl.Config{
		Name: name, M: m, Alloc: alloc, DPM: hierdrl.DPMFixedTimeout, FixedTimeoutSec: 60,
		Faults: faults, MTTFSec: mttf, MTTRSec: 600, Retry: hierdrl.RetryBackoff,
	}}
}

// faultSweepCells runs every heuristic allocator under increasing failure
// pressure (decreasing MTTF), policy-major in mttfs order.
func faultSweepCells(m int, sc hierdrl.Scale, mttfs []float64) []hierdrl.Cell {
	var cells []hierdrl.Cell
	for _, alloc := range heuristicAllocs {
		for _, mttf := range mttfs {
			cells = append(cells, faultCell(fmt.Sprintf("%s/mttf=%.0fs", alloc, mttf), m, sc, alloc, hierdrl.FaultExpCrash, mttf))
		}
	}
	return cells
}

func faultSweep(su setup) {
	m, sc := 30, su.scale(30)
	fmt.Printf("\n== Fault sweep: availability and retry cost vs MTTF (M = %d, jobs = %d) ==\n", m, sc.Jobs)
	failures := column{"failures", 9, 0, func(s hierdrl.Summary) float64 { return float64(s.Failures) }}
	summaryTable(su, "faultsweep", faultSweepCells(m, sc, []float64{10000, 20000, 40000}),
		fmt.Sprintf("%-14s %8s", "policy", "mttf(s)"),
		func(c hierdrl.Cell) string { return fmt.Sprintf("%-14s %8.0f", c.Config.Alloc, c.Config.MTTFSec) },
		[]column{colAvail, colAvgLat, colEnergy, failures, colRetried, colLost})
}

// faultMatrixCells runs every heuristic allocator under each fault class —
// independent exponential crashes, correlated rack crashes (one domain per
// ~6 servers), fail-slow degradation (default 0.25 speed factor), and
// rolling maintenance drains — policy-major. Crash/degrade cells share
// MTTF 30,000 s so the columns differ only in failure shape, not volume;
// drains use the default 4 h cadence / 10 min window.
func faultMatrixCells(m int, sc hierdrl.Scale) []hierdrl.Cell {
	var cells []hierdrl.Cell
	for _, alloc := range heuristicAllocs {
		for _, model := range []hierdrl.FaultKind{hierdrl.FaultExpCrash, hierdrl.FaultCorrelatedCrash, hierdrl.FaultDegrade, hierdrl.FaultDrain} {
			c := faultCell(fmt.Sprintf("%s/%s", alloc, model), m, sc, alloc, model, 30000)
			if model == hierdrl.FaultCorrelatedCrash {
				c.Config.Domains = hierdrl.EqualDomains(max(m/6, 1), m)
			}
			cells = append(cells, c)
		}
	}
	return cells
}

func faultMatrix(su setup) {
	m, sc := 30, su.scale(30)
	fmt.Printf("\n== X3: graceful degradation — allocators x fault classes (M = %d, jobs = %d) ==\n", m, sc.Jobs)
	summaryTable(su, "faultmatrix", faultMatrixCells(m, sc), fmt.Sprintf("%-14s %-18s", "policy", "faults"),
		func(c hierdrl.Cell) string { return fmt.Sprintf("%-14s %-18s", c.Config.Alloc, c.Config.Faults) },
		[]column{colAvail, colAvgLat, colEnergy, colRetried, colLost,
			{"migrated", 9, 0, func(s hierdrl.Summary) float64 { return float64(s.JobsMigrated) }},
			{"degraded(s)", 11, 0, func(s hierdrl.Summary) float64 { return s.DegradedSec }}})
}

// scenarioCells runs every allocator on every named scenario over a fixed
// 60 s timeout local tier, scenario-major; jobs > 0 caps each scenario's
// length (the scale scenario would otherwise stream 2M jobs).
func scenarioCells(allocs []hierdrl.AllocPolicy, scenarios []string, jobs int) []hierdrl.Cell {
	var cells []hierdrl.Cell
	for _, scen := range scenarios {
		for _, alloc := range allocs {
			name := fmt.Sprintf("%s/%s", scen, alloc)
			cfg := hierdrl.Config{Name: name, Alloc: alloc, DPM: hierdrl.DPMFixedTimeout, FixedTimeoutSec: 60}
			cells = append(cells, hierdrl.Cell{Name: name, Config: cfg, Scale: hierdrl.Scale{Jobs: jobs}, Scenario: scen})
		}
	}
	return cells
}

func scenarioSweep(su setup) {
	jobs := su.scale(30).Jobs
	fmt.Printf("\n== Scenario sweep: allocators x registered scenarios (jobs = %d) ==\n", jobs)
	allocs := []hierdrl.AllocPolicy{hierdrl.AllocRoundRobin, hierdrl.AllocLeastLoaded}
	summaryTable(su, "scenarios", scenarioCells(allocs, hierdrl.Scenarios(), jobs), fmt.Sprintf("%-18s %-14s", "scenario", "policy"),
		func(c hierdrl.Cell) string { return fmt.Sprintf("%-18s %-14s", c.Scenario, c.Config.Alloc) },
		[]column{
			{"M", 6, 0, func(s hierdrl.Summary) float64 { return float64(s.M) }},
			{"span(d)", 8, 2, func(s hierdrl.Summary) float64 { return s.DurationSec / 86400 }},
			colEnergy,
			{"power(W)", 10, 1, func(s hierdrl.Summary) float64 { return s.AvgPowerW }},
			colAvgLat,
			{"p95(s)", 10, 1, func(s hierdrl.Summary) float64 { return s.P95LatencySec }},
			colAvail,
		})
}
