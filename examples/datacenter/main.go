// Datacenter: the paper's headline comparison (Sec. VII-B) at adjustable
// scale — round-robin vs DRL-only vs the hierarchical framework on the same
// week-like workload, with the Fig. 8-style accumulated series.
//
//	go run ./examples/datacenter                      # 20x-reduced, ~30 s
//	go run ./examples/datacenter -full                # 95,000 jobs, tens of minutes
//	go run ./examples/datacenter -jobs 200 -warmup 50 # smoke-sized
package main

import (
	"flag"
	"fmt"
	"log"

	"hierdrl"
)

func main() {
	full := flag.Bool("full", false, "run the full 95,000-job operating point")
	servers := flag.Int("servers", 30, "cluster size M")
	jobs := flag.Int("jobs", 0, "override the measured workload length (0 = scale default)")
	warmup := flag.Int("warmup", -1, "override the warmup rollout length (-1 = scale default)")
	flag.Parse()

	sc := hierdrl.BenchScale(*servers)
	if *full {
		sc = hierdrl.FullScale(*servers)
	}
	if *jobs > 0 {
		sc.Jobs = *jobs
	}
	if *warmup >= 0 {
		sc.WarmupJobs = *warmup
	}

	fmt.Printf("comparing 3 systems on %d servers, %d jobs (warmup %d)...\n\n",
		*servers, sc.Jobs, sc.WarmupJobs)
	// One study cell per system, all on the same workload and seed; the
	// study runs them concurrently, bitwise equal to running them in turn.
	var cells []hierdrl.Cell
	for _, cfg := range []hierdrl.Config{hierdrl.RoundRobin(*servers), hierdrl.DRLOnly(*servers), hierdrl.Hierarchical(*servers)} {
		cfg.CheckpointEvery = sc.Jobs / 10
		cells = append(cells, hierdrl.Cell{Name: cfg.Name, Config: cfg, Scale: sc})
	}
	res, err := hierdrl.Study{Cells: cells, Seeds: []int64{1}}.Run()
	if err != nil {
		log.Fatal(err)
	}
	rr, drl, hier := res[0][0], res[1][0], res[2][0]

	fmt.Printf("%-14s %14s %18s %12s %14s\n",
		"policy", "Energy (kWh)", "Latency (10^6 s)", "Power (W)", "AvgLat (s)")
	for _, r := range []*hierdrl.Result{rr, drl, hier} {
		s := r.Summary
		fmt.Printf("%-14s %14.2f %18.3f %12.1f %14.1f\n",
			s.Policy, s.EnergykWh, s.AccLatencySec/1e6, s.AvgPowerW, s.AvgLatencySec)
	}

	fmt.Printf("\nhierarchical saves %.1f%% power/energy vs round-robin\n",
		100*(rr.Summary.EnergykWh-hier.Summary.EnergykWh)/rr.Summary.EnergykWh)

	fmt.Println("\naccumulated energy series (Fig. 8(b) shape):")
	fmt.Printf("%-10s %14s %14s %14s\n", "jobs", "round-robin", "drl-only", "hierarchical")
	n := min(len(rr.Checkpoints), len(drl.Checkpoints), len(hier.Checkpoints))
	for i := 0; i < n; i++ {
		fmt.Printf("%-10d %14.2f %14.2f %14.2f\n", rr.Checkpoints[i].Jobs,
			rr.Checkpoints[i].EnergykWh, drl.Checkpoints[i].EnergykWh, hier.Checkpoints[i].EnergykWh)
	}
}
