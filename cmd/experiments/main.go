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
// it prints median [min, max] across the seeds. Every table is printed as
// markdown; EXPERIMENTS.md holds the bench-scale ones verbatim.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"hierdrl"
)

// setup is what every experiment reads from the flags, and where it prints.
type setup struct {
	scale func(m int) hierdrl.Scale
	seeds []int64
	w     io.Writer
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
	if err := run(os.Args[1:], os.Stdout); err != nil && err != flag.ErrHelp {
		log.Fatal(err)
	}
}

// run parses a command line and prints the tables of the experiments it
// names to w.
func run(args []string, w io.Writer) error {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, " | ")+" | all")
	scaleName := fs.String("scale", "bench", "bench (20x reduced) or full (95,000 jobs)")
	seedList := fs.String("seeds", "1", "random seeds: a comma list with a-b ranges, e.g. 1-3,7")
	if err := fs.Parse(args); err != nil {
		return err
	}
	seeds, err := parseSeeds(*seedList)
	su := setup{scale: map[string]func(int) hierdrl.Scale{"bench": hierdrl.BenchScale, "full": hierdrl.FullScale}[*scaleName], seeds: seeds, w: w}
	switch {
	case err != nil:
		return err
	case su.scale == nil:
		return fmt.Errorf("unknown scale %q", *scaleName)
	case *exp != "all" && !slices.Contains(names, *exp):
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	for _, e := range experiments {
		if e.name == *exp || (*exp == "all" && !e.solo) {
			e.run(su)
		}
	}
	return nil
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

// must returns v, exiting on err.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// stat formats one metric, evaluated at every seed index, with a fmt verb:
// the value itself for one seed, "median [min, max]" for several.
func (su setup) stat(verb string, metric func(s int) float64) string {
	xs := make([]float64, len(su.seeds))
	for s := range xs {
		xs[s] = metric(s)
	}
	if len(xs) == 1 {
		return fmt.Sprintf(verb, xs[0])
	}
	med, lo, hi := hierdrl.MedianRange(xs)
	return fmt.Sprintf(verb+" ["+verb+", "+verb+"]", med, lo, hi)
}

// writeTable prints what every experiment prints: a bold title line, then a
// markdown table of the header row and the value rows.
func writeTable(w io.Writer, title string, head []string, rows [][]string) {
	fmt.Fprintf(w, "**%s**\n\n| %s |\n|%s\n", title, strings.Join(head, " | "), strings.Repeat(" --- |", len(head)))
	for _, r := range rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
	}
	fmt.Fprintln(w)
}

// A column is one Summary metric of a table: its header and fmt verb.
type column struct {
	head, verb string
	of         func(hierdrl.Summary) float64
}

var (
	colAvail   = column{"avail", "%.4f", func(s hierdrl.Summary) float64 { return s.Availability }}
	colAvgLat  = column{"avgLat(s)", "%.1f", func(s hierdrl.Summary) float64 { return s.AvgLatencySec }}
	colEnergy  = column{"E(kWh)", "%.2f", func(s hierdrl.Summary) float64 { return s.EnergykWh }}
	colRetried = column{"retried", "%.0f", func(s hierdrl.Summary) float64 { return float64(s.JobsRetried) }}
	colLost    = column{"lost", "%.0f", func(s hierdrl.Summary) float64 { return float64(s.JobsLost) }}
)

// summaryTable runs cells over the seeds and prints one table: the label
// heads, then the column heads; one row per cell, labelled by the parts of
// its name ("round-robin/degrade" fills two label cells), then each column.
func summaryTable(su setup, title string, cells []hierdrl.Cell, heads []string, cols []column) [][]*hierdrl.Result {
	res := must(hierdrl.Study{Cells: cells, Seeds: su.seeds}.Run())
	var rows [][]string
	for i, runs := range res {
		row := strings.Split(cells[i].Name, "/")
		for _, c := range cols {
			row = append(row, su.stat(c.verb, func(s int) float64 { return c.of(runs[s].Summary) }))
		}
		rows = append(rows, row)
	}
	for _, c := range cols {
		heads = append(heads, c.head)
	}
	writeTable(su.w, title, heads, rows)
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
	energy := func(s hierdrl.Summary) float64 { return s.EnergykWh }
	for _, m := range []int{30, 40} {
		res := summaryTable(su, fmt.Sprintf("Table I: energy / accumulated latency / average power (M = %d, jobs = %d)", m, su.scale(m).Jobs),
			comparisonCells(m, su.scale(m), 0), []string{"policy"}, []column{
				{"Energy (kWh)", "%.2f", energy},
				{"Latency (10^6 s)", "%.2f", func(s hierdrl.Summary) float64 { return s.AccLatencySec / 1e6 }},
				{"Power (W)", "%.2f", func(s hierdrl.Summary) float64 { return s.AvgPowerW }},
			})
		// change is hierarchical's per-seed relative difference to system b in percent.
		change := func(b int, of func(hierdrl.Summary) float64) string {
			return su.stat("%+.2f", func(s int) float64 {
				x, y := of(res[2][s].Summary), of(res[b][s].Summary)
				return 100 * (x - y) / y
			})
		}
		writeTable(su.w, fmt.Sprintf("Table I: hierarchical's change against each baseline (M = %d)", m),
			[]string{"hierarchical vs", "energy (%)", "latency (%)"}, [][]string{
				{"round-robin", change(0, energy), ""},
				{"drl-only", change(1, energy), change(1, func(s hierdrl.Summary) float64 { return s.AccLatencySec })},
			})
	}
}

func figSeries(fig, m int, su setup) {
	sc := su.scale(m)
	cells := comparisonCells(m, sc, max(1, sc.Jobs/19))
	res := must(hierdrl.Study{Cells: cells, Seeds: su.seeds}.Run())
	head := []string{"jobs"}
	for _, c := range cells {
		head = append(head, c.Name+" latency(s)", c.Name+" energy(kWh)")
	}
	var rows [][]string
	// Every run completes the same jobs, so every series has the same length.
	for i := range res[0][0].Checkpoints {
		row := []string{strconv.Itoa(res[0][0].Checkpoints[i].Jobs)}
		for _, runs := range res {
			row = append(row,
				su.stat("%.0f", func(s int) float64 { return runs[s].Checkpoints[i].AccLatencySec }),
				su.stat("%.2f", func(s int) float64 { return runs[s].Checkpoints[i].EnergykWh }))
		}
		rows = append(rows, row)
	}
	writeTable(su.w, fmt.Sprintf("Fig. %d: accumulated latency & energy vs #jobs (M = %d)", fig, m), head, rows)
}

// tradeoffSystems names the Fig. 10 systems in tradeoffCells' order.
var tradeoffSystems = []string{"hierarchical", "fixed-30", "fixed-60", "fixed-90"}

// tradeoffCells is the Fig. 10 grid, system-major: the hierarchical
// framework, then the fixed 30/60/90 s timeout baselines, each at every
// lambda. lambda couples the reward weights coherently: the global tier uses
// W1 = 2(1-lambda) (power) and W2 = 2*lambda (latency proxy); the
// hierarchical local tier additionally sets its Eqn. (5) weight w = 1-lambda.
// The fixed-timeout baselines have no local knob — exactly why the paper
// calls their curves "not complete".
func tradeoffCells(m int, sc hierdrl.Scale, lambdas []float64) []hierdrl.Cell {
	var cells []hierdrl.Cell
	for i, sys := range []hierdrl.Config{hierdrl.Hierarchical(m), hierdrl.FixedTimeoutBaseline(m, 30),
		hierdrl.FixedTimeoutBaseline(m, 60), hierdrl.FixedTimeoutBaseline(m, 90)} {
		for _, lam := range lambdas {
			cfg := sys
			cfg.Global.W1, cfg.Global.W2 = 2*(1-lam), 2*lam
			if cfg.DPM == hierdrl.DPMRL {
				cfg.LocalRL.PowerWeight = 1 - lam
			}
			cells = append(cells, hierdrl.Cell{Name: fmt.Sprintf("%s/%v", tradeoffSystems[i], lam), Config: cfg, Scale: sc})
		}
	}
	return cells
}

func fig10(su setup) {
	m, sc := 30, su.scale(30)
	// The full sweep is expensive (16 end-to-end runs); thin the workload.
	sc.Jobs, sc.WarmupJobs = max(2000, sc.Jobs/4), max(500, sc.WarmupJobs/4)
	lambdas := []float64{0.15, 0.35, 0.55, 0.75}
	res := summaryTable(su, fmt.Sprintf("Fig. 10: latency/energy trade-off (M = %d, jobs = %d)", m, sc.Jobs),
		tradeoffCells(m, sc, lambdas), []string{"system", "lambda"}, []column{
			{"avgLat(s)", "%.0f", func(s hierdrl.Summary) float64 { return s.AvgLatencySec }},
			{"E(kJ/job)", "%.0f", func(s hierdrl.Summary) float64 { return s.AvgEnergyJPerJob / 1e3 }},
		})
	// The paper's "smallest area against the axes" comparison, reported as
	// dominated hypervolume (larger = better trade-off curve) against each
	// seed's own reference point.
	var hv [][]string
	for c, name := range tradeoffSystems {
		hv = append(hv, []string{name, su.stat("%.3g", func(s int) float64 {
			var refLat, refE float64
			var curve []hierdrl.TradeoffPoint
			for i, runs := range res {
				p := runs[s].Tradeoff(tradeoffSystems[i/len(lambdas)], lambdas[i%len(lambdas)])
				refLat, refE = max(refLat, p.AvgLatencySec), max(refE, p.AvgEnergyJPerJob)
				if i/len(lambdas) == c {
					curve = append(curve, p)
				}
			}
			return hierdrl.HypervolumeOf(curve, refLat*1.05, refE*1.05)
		})})
	}
	writeTable(su.w, "Fig. 10: dominated hypervolume (larger = better)", []string{"system", "hypervolume"}, hv)
}

func lstmStudy(su setup) {
	n := 3000
	if su.scale(30).Jobs > 10000 {
		n = 10000
	}
	scores := make([][]hierdrl.PredictorScore, len(su.seeds)) // [seed][predictor]
	for s, seed := range su.seeds {
		scores[s] = must(hierdrl.RunPredictorComparison(n, seed))
	}
	var rows [][]string
	for i, p := range scores[0] {
		rows = append(rows, []string{p.Name,
			su.stat("%.4f", func(s int) float64 { return scores[s][i].RMSELog }),
			su.stat("%.2f", func(s int) float64 { return scores[s][i].MAE }),
			su.stat("%.0f", func(s int) float64 { return float64(scores[s][i].Samples) })})
	}
	writeTable(su.w, "X1: workload predictor accuracy (one-step inter-arrival)", []string{"predictor", "RMSE(log)", "MAE(s)", "samples"}, rows)
}

func ablation(su setup) {
	steps := 300
	if su.scale(30).Jobs > 10000 {
		steps = 1500
	}
	results := make([][]hierdrl.AblationResult, len(su.seeds)) // [seed][variant]
	for s, seed := range su.seeds {
		results[s] = must(hierdrl.RunAblation(30, steps, []int{2, 3, 5}, seed))
	}
	var rows [][]string
	for i, r := range results[0] {
		rows = append(rows, []string{r.Variant, strconv.Itoa(r.K),
			su.stat("%.0f", func(s int) float64 { return float64(results[s][i].Params) }),
			su.stat("%.5f", func(s int) float64 { return results[s][i].FinalLoss })})
	}
	writeTable(su.w, "X2: Fig. 6 architecture ablation (offline Q-regression)", []string{"variant", "K", "params", "final loss"}, rows)
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
			cells = append(cells, faultCell(fmt.Sprintf("%s/%.0f", alloc, mttf), m, sc, alloc, hierdrl.FaultExpCrash, mttf))
		}
	}
	return cells
}

func faultSweep(su setup) {
	m, sc := 30, su.scale(30)
	failures := column{"failures", "%.0f", func(s hierdrl.Summary) float64 { return float64(s.Failures) }}
	summaryTable(su, fmt.Sprintf("Fault sweep: availability and retry cost vs MTTF (M = %d, jobs = %d)", m, sc.Jobs),
		faultSweepCells(m, sc, []float64{10000, 20000, 40000}), []string{"policy", "mttf(s)"},
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
	summaryTable(su, fmt.Sprintf("X3: graceful degradation — allocators x fault classes (M = %d, jobs = %d)", m, sc.Jobs),
		faultMatrixCells(m, sc), []string{"policy", "faults"},
		[]column{colAvail, colAvgLat, colEnergy, colRetried, colLost,
			{"migrated", "%.0f", func(s hierdrl.Summary) float64 { return float64(s.JobsMigrated) }},
			{"degraded(s)", "%.0f", func(s hierdrl.Summary) float64 { return s.DegradedSec }}})
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
	allocs := []hierdrl.AllocPolicy{hierdrl.AllocRoundRobin, hierdrl.AllocLeastLoaded}
	summaryTable(su, fmt.Sprintf("Scenario sweep: allocators x registered scenarios (jobs = %d)", jobs),
		scenarioCells(allocs, hierdrl.Scenarios(), jobs), []string{"scenario", "policy"},
		[]column{
			{"M", "%.0f", func(s hierdrl.Summary) float64 { return float64(s.M) }},
			{"span(d)", "%.2f", func(s hierdrl.Summary) float64 { return s.DurationSec / 86400 }},
			colEnergy,
			{"power(W)", "%.1f", func(s hierdrl.Summary) float64 { return s.AvgPowerW }},
			colAvgLat,
			{"p95(s)", "%.1f", func(s hierdrl.Summary) float64 { return s.P95LatencySec }},
			colAvail,
		})
}
