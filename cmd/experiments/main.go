// Command experiments regenerates every table and figure of the paper's
// evaluation (Sec. VII) plus the two extension studies documented in
// DESIGN.md:
//
//	experiments -exp table1             // Table I, M=30 and M=40
//	experiments -exp fig8               // Fig. 8 series, M=30
//	experiments -exp fig9               // Fig. 9 series, M=40
//	experiments -exp fig10              // Fig. 10 trade-off curves
//	experiments -exp lstm               // X1: predictor accuracy comparison
//	experiments -exp ablation           // X2: autoencoder / weight-sharing ablation
//	experiments -exp faultmatrix        // X3: allocators x fault classes degradation matrix
//	experiments -exp all
//
// -scale bench runs the 20x-reduced configuration (minutes); -scale full
// reproduces the 95,000-job operating point (tens of minutes).
package main

import (
	"flag"
	"fmt"
	"log"

	"hierdrl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	exp := flag.String("exp", "all", "experiment: table1 | fig8 | fig9 | fig10 | lstm | ablation | faultmatrix | all")
	scaleName := flag.String("scale", "bench", "bench (20x reduced) or full (95,000 jobs)")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	scaleFor := func(m int) hierdrl.Scale {
		var sc hierdrl.Scale
		switch *scaleName {
		case "bench":
			sc = hierdrl.BenchScale(m)
		case "full":
			sc = hierdrl.FullScale(m)
		default:
			log.Fatalf("unknown scale %q", *scaleName)
		}
		sc.Seed = *seed
		return sc
	}

	run := map[string]func(func(int) hierdrl.Scale){
		"table1":      table1,
		"fig8":        func(s func(int) hierdrl.Scale) { figSeries(8, 30, s) },
		"fig9":        func(s func(int) hierdrl.Scale) { figSeries(9, 40, s) },
		"fig10":       fig10,
		"lstm":        lstmStudy,
		"ablation":    ablation,
		"faultmatrix": faultMatrix,
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig8", "fig9", "fig10", "lstm", "ablation", "faultmatrix"} {
			run[name](scaleFor)
		}
		return
	}
	fn, ok := run[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	fn(scaleFor)
}

func table1(scaleFor func(int) hierdrl.Scale) {
	fmt.Println("== Table I: energy / accumulated latency / average power ==")
	for _, m := range []int{30, 40} {
		sc := scaleFor(m)
		fmt.Printf("\n-- M = %d, jobs = %d --\n", m, sc.Jobs)
		cmp, err := hierdrl.RunComparison(m, sc, 0)
		if err != nil {
			log.Fatalf("table1 M=%d: %v", m, err)
		}
		fmt.Printf("%-14s %14s %18s %12s\n", "policy", "Energy (kWh)", "Latency (10^6 s)", "Power (W)")
		for _, s := range cmp.Rows() {
			fmt.Printf("%-14s %14.2f %18.2f %12.2f\n",
				s.Policy, s.EnergykWh, s.AccLatencySec/1e6, s.AvgPowerW)
		}
		rr, hier, drl := cmp.RoundRobin.Summary, cmp.Hierarchical.Summary, cmp.DRLOnly.Summary
		fmt.Printf("hierarchical vs round-robin: %+.2f%% energy\n",
			100*(hier.EnergykWh-rr.EnergykWh)/rr.EnergykWh)
		fmt.Printf("hierarchical vs drl-only:    %+.2f%% energy, %+.2f%% latency\n",
			100*(hier.EnergykWh-drl.EnergykWh)/drl.EnergykWh,
			100*(hier.AccLatencySec-drl.AccLatencySec)/drl.AccLatencySec)
	}
}

func figSeries(fig, m int, scaleFor func(int) hierdrl.Scale) {
	sc := scaleFor(m)
	fmt.Printf("\n== Fig. %d: accumulated latency & energy vs #jobs (M = %d) ==\n", fig, m)
	cmp, err := hierdrl.RunComparison(m, sc, max(1, sc.Jobs/19))
	if err != nil {
		log.Fatalf("fig%d: %v", fig, err)
	}
	fmt.Printf("%-8s | %-26s | %-26s | %-26s\n", "", "round-robin", "drl-only", "hierarchical")
	fmt.Printf("%-8s | %12s %13s | %12s %13s | %12s %13s\n",
		"jobs", "latency(s)", "energy(kWh)", "latency(s)", "energy(kWh)", "latency(s)", "energy(kWh)")
	series := [][]hierdrl.Checkpoint{
		cmp.RoundRobin.Checkpoints, cmp.DRLOnly.Checkpoints, cmp.Hierarchical.Checkpoints,
	}
	n := len(series[0])
	for _, s := range series[1:] {
		if len(s) < n {
			n = len(s)
		}
	}
	for i := 0; i < n; i++ {
		fmt.Printf("%-8d | %12.0f %13.2f | %12.0f %13.2f | %12.0f %13.2f\n",
			series[0][i].Jobs,
			series[0][i].AccLatencySec, series[0][i].EnergykWh,
			series[1][i].AccLatencySec, series[1][i].EnergykWh,
			series[2][i].AccLatencySec, series[2][i].EnergykWh)
	}
}

func fig10(scaleFor func(int) hierdrl.Scale) {
	m := 30
	sc := scaleFor(m)
	// The full sweep is expensive (16 end-to-end runs); thin the workload.
	sc.Jobs = max(2000, sc.Jobs/4)
	sc.WarmupJobs = max(500, sc.WarmupJobs/4)
	fmt.Printf("\n== Fig. 10: latency/energy trade-off (M = %d, jobs = %d) ==\n", m, sc.Jobs)
	lambdas := []float64{0.15, 0.35, 0.55, 0.75}
	curves, err := hierdrl.RunTradeoff(m, sc, lambdas)
	if err != nil {
		log.Fatalf("fig10: %v", err)
	}
	show := func(name string, pts []hierdrl.TradeoffPoint) {
		fmt.Printf("%-14s", name)
		for _, p := range pts {
			fmt.Printf("  (lat=%.0fs, E=%.0fkJ)", p.AvgLatencySec, p.AvgEnergyJPerJob/1e3)
		}
		fmt.Println()
	}
	show("hierarchical", curves.Hierarchical)
	show("fixed-30", curves.Fixed30)
	show("fixed-60", curves.Fixed60)
	show("fixed-90", curves.Fixed90)

	// The paper's "smallest area against the axes" comparison, reported as
	// dominated hypervolume (larger = better trade-off curve).
	var refLat, refE float64
	for _, curve := range curves.All() {
		for _, p := range curve {
			if p.AvgLatencySec > refLat {
				refLat = p.AvgLatencySec
			}
			if p.AvgEnergyJPerJob > refE {
				refE = p.AvgEnergyJPerJob
			}
		}
	}
	refLat *= 1.05
	refE *= 1.05
	fmt.Println("dominated hypervolume (larger = better):")
	fmt.Printf("  hierarchical %.3g | fixed-30 %.3g | fixed-60 %.3g | fixed-90 %.3g\n",
		hierdrl.HypervolumeOf(curves.Hierarchical, refLat, refE),
		hierdrl.HypervolumeOf(curves.Fixed30, refLat, refE),
		hierdrl.HypervolumeOf(curves.Fixed60, refLat, refE),
		hierdrl.HypervolumeOf(curves.Fixed90, refLat, refE))
}

func lstmStudy(scaleFor func(int) hierdrl.Scale) {
	fmt.Println("\n== X1: workload predictor accuracy (one-step inter-arrival) ==")
	n := 3000
	if scaleFor(30).Jobs > 10000 {
		n = 10000
	}
	scores, err := hierdrl.RunPredictorComparison(n, 1)
	if err != nil {
		log.Fatalf("lstm study: %v", err)
	}
	fmt.Printf("%-14s %12s %12s %10s\n", "predictor", "RMSE(log)", "MAE(s)", "samples")
	for _, s := range scores {
		fmt.Printf("%-14s %12.4f %12.2f %10d\n", s.Name, s.RMSELog, s.MAE, s.Samples)
	}
}

func faultMatrix(scaleFor func(int) hierdrl.Scale) {
	m := 30
	sc := scaleFor(m)
	fmt.Printf("\n== X3: graceful degradation — allocators x fault classes (M = %d, jobs = %d) ==\n", m, sc.Jobs)
	points, err := hierdrl.RunFaultMatrix(m, sc)
	if err != nil {
		log.Fatalf("faultmatrix: %v", err)
	}
	fmt.Printf("%-14s %-18s %8s %10s %10s %9s %9s %9s %11s\n",
		"policy", "faults", "avail", "avgLat(s)", "E(kWh)", "retried", "lost", "migrated", "degraded(s)")
	for _, p := range points {
		s := p.Summary
		fmt.Printf("%-14s %-18s %8.4f %10.1f %10.2f %9d %9d %9d %11.0f\n",
			p.Alloc, p.Faults, s.Availability, s.AvgLatencySec, s.EnergykWh,
			s.JobsRetried, s.JobsLost, s.JobsMigrated, s.DegradedSec)
	}
}

func ablation(scaleFor func(int) hierdrl.Scale) {
	fmt.Println("\n== X2: Fig. 6 architecture ablation (offline Q-regression) ==")
	steps := 300
	if scaleFor(30).Jobs > 10000 {
		steps = 1500
	}
	results, err := hierdrl.RunAblation(30, steps, []int{2, 3, 5}, 1)
	if err != nil {
		log.Fatalf("ablation: %v", err)
	}
	fmt.Printf("%-20s %4s %10s %12s\n", "variant", "K", "params", "final loss")
	for _, r := range results {
		fmt.Printf("%-20s %4d %10d %12.5f\n", r.Variant, r.K, r.Params, r.FinalLoss)
	}
}
