// Quickstart: run the paper's hierarchical framework on a small synthetic
// workload through the Session API — streaming ingestion, a mid-run
// snapshot, observer hooks — and print the Table-I-style summary.
//
//	go run ./examples/quickstart
//	go run ./examples/quickstart -jobs 500 -warmup 100   # CI-sized
package main

import (
	"flag"
	"fmt"
	"log"

	"hierdrl"
)

func main() {
	servers := flag.Int("servers", 10, "cluster size M")
	jobs := flag.Int("jobs", 3000, "measured workload length")
	warmup := flag.Int("warmup", 1500, "offline-phase rollout length")
	flag.Parse()

	// A Google-style workload calibrated for the cluster size.
	workload := hierdrl.SyntheticTraceForCluster(*jobs, *servers, 1)

	// The proposed system: DRL global tier + RL/LSTM local tier. The
	// warmup trace drives the offline phase of Algorithm 1 (experience
	// memory fill, autoencoder pretraining, fitted-Q sweeps) inside
	// NewSession.
	cfg := hierdrl.Hierarchical(*servers)
	cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(*warmup, *servers, 2)
	cfg.Predictor = hierdrl.PredictorEWMA // swap for PredictorLSTM for the full paper setup
	cfg.CheckpointEvery = max(1, *jobs/5)

	// Observe the run as it happens: every checkpoint prints one progress
	// line, without touching the simulation hot path.
	obs := hierdrl.Observer{
		OnCheckpoint: func(cp hierdrl.Checkpoint) {
			fmt.Printf("  ... %5d jobs done at t=%.0fs: %.2f kWh\n",
				cp.Jobs, cp.Time.Seconds(), cp.EnergykWh)
		},
	}

	s, err := hierdrl.NewSession(cfg, hierdrl.WithObserver(obs))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// Stream the workload in: jobs could equally arrive one Submit at a
	// time from a socket or a queue.
	if err := s.SubmitTrace(workload); err != nil {
		log.Fatal(err)
	}

	// Advance the clock halfway and peek at the live cluster.
	mid := hierdrl.Time(workload.Jobs[workload.Len()/2].Arrival)
	if err := s.StepUntil(mid); err != nil {
		log.Fatal(err)
	}
	snap := s.Snapshot()
	asleep := 0
	for _, st := range snap.View.State {
		if st == hierdrl.StateSleep {
			asleep++
		}
	}
	fmt.Printf("mid-run: t=%.0fs, %d/%d jobs done, %.0f W draw, %d/%d servers asleep\n",
		snap.Now.Seconds(), snap.Completed, snap.Ingested, snap.TotalPowerW, asleep, *servers)

	// Finish and summarize.
	if err := s.Drain(); err != nil {
		log.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nhierarchical framework on", *servers, "servers:")
	fmt.Printf("  energy       %.2f kWh\n", res.Summary.EnergykWh)
	fmt.Printf("  avg power    %.1f W\n", res.Summary.AvgPowerW)
	fmt.Printf("  avg latency  %.1f s per job\n", res.Summary.AvgLatencySec)
	fmt.Printf("  transitions  %d wakeups, %d shutdowns\n",
		res.Summary.Wakeups, res.Summary.Shutdowns)
	fmt.Printf("  agent        %s\n", res.AgentDiag)

	// Baseline for context: round-robin with always-on servers (the batch
	// helper Run is the same Session driven end to end).
	rr, err := hierdrl.Run(hierdrl.RoundRobin(*servers), workload)
	if err != nil {
		log.Fatal(err)
	}
	saving := 100 * (rr.Summary.EnergykWh - res.Summary.EnergykWh) / rr.Summary.EnergykWh
	fmt.Printf("\nvs round-robin: %.1f%% energy saving (%.2f kWh -> %.2f kWh)\n",
		saving, rr.Summary.EnergykWh, res.Summary.EnergykWh)
}
