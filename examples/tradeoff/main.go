// Tradeoff: the Fig. 10 study — sweep the latency-emphasis weight and plot
// (in ASCII) the average-latency / average-energy frontier of the
// hierarchical framework against DRL + fixed-timeout baselines.
//
//	go run ./examples/tradeoff
//	go run ./examples/tradeoff -jobs 200 -warmup 50   # smoke-sized
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"

	"hierdrl"
)

func main() {
	jobs := flag.Int("jobs", 3000, "measured workload length per run")
	warmup := flag.Int("warmup", 1000, "offline-phase rollout length")
	flag.Parse()

	const m = 10
	sc := hierdrl.Scale{Jobs: *jobs, WarmupJobs: *warmup, ClusterM: m}
	lambdas := []float64{0.2, 0.5, 0.8}

	// One study cell per (system, lambda). lambda weights the global tier's
	// reward (W1 = 2(1-lambda) power, W2 = 2*lambda latency proxy) and, for
	// the hierarchical system only, the local tier's power weight: the fixed
	// timeouts have no local knob.
	type curve struct {
		name    string
		timeout float64 // 0: the hierarchical framework's learned timeout
		pts     []hierdrl.TradeoffPoint
	}
	all := []curve{{"hierarchical", 0, nil}, {"fixed-30", 30, nil}, {"fixed-60", 60, nil}, {"fixed-90", 90, nil}}
	var cells []hierdrl.Cell
	for _, c := range all {
		for _, lam := range lambdas {
			cfg := hierdrl.Hierarchical(m)
			cfg.LocalRL.PowerWeight = 1 - lam
			if c.timeout > 0 {
				cfg = hierdrl.FixedTimeoutBaseline(m, c.timeout)
			}
			cfg.Global.W1, cfg.Global.W2 = 2*(1-lam), 2*lam
			cells = append(cells, hierdrl.Cell{Name: c.name, Config: cfg, Scale: sc})
		}
	}

	fmt.Printf("sweeping lambda in %v on %d servers, %d jobs per run...\n",
		lambdas, m, sc.Jobs)
	res, err := hierdrl.Study{Cells: cells, Seeds: []int64{1}}.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-14s %8s %14s %16s\n", "system", "lambda", "avg latency", "avg energy/job")
	var maxLat, maxE float64
	for i, runs := range res {
		c := &all[i/len(lambdas)]
		p := runs[0].Tradeoff(c.name, lambdas[i%len(lambdas)])
		c.pts = append(c.pts, p)
		fmt.Printf("%-14s %8.2f %12.1f s %13.1f kJ\n",
			c.name, p.Weight, p.AvgLatencySec, p.AvgEnergyJPerJob/1e3)
		maxLat = math.Max(maxLat, p.AvgLatencySec)
		maxE = math.Max(maxE, p.AvgEnergyJPerJob)
	}

	// ASCII scatter: latency on x, energy on y.
	const w, h = 64, 16
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", w))
	}
	marks := []byte{'H', '3', '6', '9'}
	for ci, c := range all {
		for _, p := range c.pts {
			x := int(p.AvgLatencySec / maxLat * float64(w-1))
			y := h - 1 - int(p.AvgEnergyJPerJob/maxE*float64(h-1))
			grid[y][x] = marks[ci]
		}
	}
	fmt.Println("\nenergy/job ^   (H=hierarchical, 3/6/9=fixed timeout 30/60/90)")
	for _, row := range grid {
		fmt.Printf("  %s\n", row)
	}
	fmt.Printf("  %s> latency\n", strings.Repeat("-", w))

	refLat, refE := maxLat*1.05, maxE*1.05
	fmt.Println("\ndominated hypervolume (larger = better trade-off):")
	for _, c := range all {
		fmt.Printf("  %-14s %.4g\n", c.name, hierdrl.HypervolumeOf(c.pts, refLat, refE))
	}
}
