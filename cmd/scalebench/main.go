// Command scalebench measures the sharded engine's single-run scaling: it
// executes the scale-10k preset (or a reduced -m/-jobs variant) at each
// requested shard count and prints the wall-clock speedup table. With -json
// it writes the machine-readable BENCH_scale.json tracked at the repo root,
// so every PR can compare against the committed scaling baseline.
//
//	scalebench                         # P = 1,2,4,8 at full scale, table to stdout
//	scalebench -shards 1,2 -m 2000 -jobs 200000   # CI smoke
//	scalebench -json BENCH_scale.json  # record the baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hierdrl"
)

// Row is one shard count's measurement.
type Row struct {
	Shards     int     `json:"shards"`
	Seconds    float64 `json:"seconds"`
	Speedup    float64 `json:"speedup"` // vs the P=1 row
	JobsPerSec float64 `json:"jobs_per_sec"`
	EnergykWh  float64 `json:"energy_kwh"` // result fingerprint: must agree across P
	AvgLatSec  float64 `json:"avg_latency_sec"`
}

// Output is the BENCH_scale.json document.
type Output struct {
	Context map[string]string `json:"context"`
	Preset  map[string]int    `json:"preset"`
	Rows    []Row             `json:"rows"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalebench: ")

	m := flag.Int("m", hierdrl.ScaleM, "cluster size")
	jobs := flag.Int("jobs", hierdrl.ScaleJobs, "workload length")
	seed := flag.Int64("seed", 1, "workload seed")
	shardList := flag.String("shards", "", "comma-separated shard counts (default \"1,2,4,8\" capped at NumCPU; a P=1 baseline row is always prepended if missing)")
	all := flag.Bool("cpus", false, "measure every P in 1..NumCPU instead of the default ladder")
	jsonOut := flag.String("json", "", "also write the results as JSON to this file")
	flag.Parse()

	var ps []int
	switch {
	case *shardList != "":
		for _, f := range strings.Split(*shardList, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p < 1 {
				log.Fatalf("bad -shards entry %q", f)
			}
			ps = append(ps, p)
		}
	case *all:
		for p := 1; p <= runtime.NumCPU(); p++ {
			ps = append(ps, p)
		}
	default:
		ps = []int{1}
		for _, p := range []int{2, 4, 8} {
			if p <= runtime.NumCPU() {
				ps = append(ps, p)
			}
		}
	}

	fmt.Printf("scale preset: M=%d jobs=%d seed=%d (GOMAXPROCS=%d, NumCPU=%d)\n",
		*m, *jobs, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("%8s %10s %9s %12s %14s %12s\n", "shards", "wall(s)", "speedup", "jobs/s", "energy(kWh)", "avgLat(s)")

	out := Output{
		Context: map[string]string{
			"goarch":     runtime.GOARCH,
			"goos":       runtime.GOOS,
			"num_cpu":    strconv.Itoa(runtime.NumCPU()),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		},
		Preset: map[string]int{"m": *m, "jobs": *jobs, "seed": int(*seed)},
	}
	// Speedup is defined against the strict tier: an explicit -shards list
	// without a P=1 entry gets one prepended so the baseline always exists.
	hasOne := false
	for _, p := range ps {
		if p == 1 {
			hasOne = true
		}
	}
	if !hasOne {
		ps = append([]int{1}, ps...)
	}
	var base float64
	for _, p := range ps {
		cfg := hierdrl.ScaleSim(*m)
		cfg.Seed = *seed
		src, err := hierdrl.ScaleStream(*jobs, *m, *seed)
		if err != nil {
			log.Fatalf("workload: %v", err)
		}
		start := time.Now()
		res, err := hierdrl.RunSource(cfg, src, hierdrl.WithShards(p))
		if err != nil {
			log.Fatalf("P=%d: %v", p, err)
		}
		wall := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "scalebench: P=%d done in %.2fs\n", p, wall)
		if p == 1 {
			base = wall
		}
		out.Rows = append(out.Rows, Row{
			Shards:     p,
			Seconds:    wall,
			JobsPerSec: float64(*jobs) / wall,
			EnergykWh:  res.Summary.EnergykWh,
			AvgLatSec:  res.Summary.AvgLatencySec,
		})
	}
	// Speedups are filled after all runs so a P=1 entry anywhere in the list
	// anchors every row.
	for i := range out.Rows {
		r := &out.Rows[i]
		r.Speedup = base / r.Seconds
		fmt.Printf("%8d %10.2f %8.2fx %12.0f %14.2f %12.1f\n",
			r.Shards, r.Seconds, r.Speedup, r.JobsPerSec, r.EnergykWh, r.AvgLatSec)
	}

	// The engine's determinism contract makes the metrics a cross-P check:
	// a result fingerprint that drifts with P is a sharding bug, not noise.
	for _, r := range out.Rows[1:] {
		if r.EnergykWh != out.Rows[0].EnergykWh {
			log.Fatalf("result drift: P=%d energy %v != P=%d energy %v",
				r.Shards, r.EnergykWh, out.Rows[0].Shards, out.Rows[0].EnergykWh)
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatalf("create %s: %v", *jsonOut, err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatalf("encode: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("close: %v", err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}
