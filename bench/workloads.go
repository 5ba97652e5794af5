package main

import (
	"fmt"

	"hierdrl"
)

// chunksPerPass is the number of equal-job-count chunks every measured pass
// is cut into; us_per_job_p50/p95 are quantiles over these chunks, so the
// 95th percentile has 12 samples beyond it.
const chunksPerPass = 256

// quickDivisor shrinks every workload for -quick (the test's sizes).
const quickDivisor = 200

// quickChunks replaces chunksPerPass under -quick, where a pass holds only a
// few hundred jobs.
const quickChunks = 16

// workload is one named set of inputs: a configuration of the program, a
// job feed, and the sizes the builder settled on for this box (see
// README.md for the measured pass times behind them).
type workload struct {
	name string
	why  string
	// m is the cluster size the trace generator is calibrated for.
	m int
	// jobs and warmup are the measured and offline-phase trace lengths at
	// full size; the traces themselves are drawn from --seed.
	jobs, warmup int
	// stream feeds the pass one chunk at a time from the generator (what
	// RunSource does); otherwise the whole trace is submitted first (what
	// Run does).
	stream bool
	// shards > 1 runs the parallel tier (WithShards).
	shards int
	// trips is the number of Checkpoint -> Restore round trips spread evenly
	// over the pass.
	trips int
	// twin names the workload whose result fingerprint must equal this one's
	// (strict == sharded).
	twin string
	// config builds the program configuration; it receives Config.Seed and
	// the warmup trace (nil when warmup == 0).
	config func(seed int64, warm *hierdrl.Trace) hierdrl.Config
}

func withSeed(cfg hierdrl.Config, seed int64, warm *hierdrl.Trace) hierdrl.Config {
	cfg.Seed = seed
	cfg.WarmupTrace = warm
	return cfg
}

// workloads is the fixed table; later issues refer to these names verbatim.
var workloads = []workload{
	{
		name: "paper-hier",
		why:  "the paper's proposed system, every layer live: global DRL tier and per-server lstm share the pass about 2:1, so a gain in either shows and a trade between them shows too",
		m:    30, jobs: 28000, warmup: 8000,
		config: func(seed int64, warm *hierdrl.Trace) hierdrl.Config {
			return withSeed(hierdrl.Hierarchical(30), seed, warm)
		},
	},
	{
		name: "paper-drl",
		why:  "DRL allocation with ad-hoc sleep: the global tier (global/nn/mat/rl replay) does nearly all the work, lstm and local RL are bypassed; a GEMM or Q-network change must move it, an LSTM change must not",
		m:    30, jobs: 44000, warmup: 8000,
		config: func(seed int64, warm *hierdrl.Trace) hierdrl.Config {
			return withSeed(hierdrl.DRLOnly(30), seed, warm)
		},
	},
	{
		name: "engine-rr",
		why:  "round-robin, always-on, streamed: no learner runs, so sim + cluster + session pump + metrics + trace generator are the whole cost; the no-change side of every learner optimisation",
		m:    30, jobs: 2600000, stream: true,
		config: func(seed int64, _ *hierdrl.Trace) hierdrl.Config {
			return withSeed(hierdrl.RoundRobin(30), seed, nil)
		},
	},
	{
		name: "scale-ll",
		why:  "4,000 servers, least-loaded via load index, RL timeout with compact LSTM, streamed, P=1: large-M regime, lstm + local RL and the engine each do ~45%, 4,000 learners exceed the cache, no global DRL",
		m:    4000, jobs: 800000, stream: true,
		config: func(seed int64, _ *hierdrl.Trace) hierdrl.Config {
			return withSeed(hierdrl.ScaleSim(4000), seed, nil)
		},
	},
	{
		name: "scale-ll-p2",
		why:  "scale-ll's exact inputs on the sharded tier (2 shards): epoch barrier, pended dispatch, merged replay; where the sharded tier must win or be deleted",
		m:    4000, jobs: 800000, stream: true, shards: 2, twin: "scale-ll",
		config: func(seed int64, _ *hierdrl.Trace) hierdrl.Config {
			return withSeed(hierdrl.ScaleSim(4000), seed, nil)
		},
	},
	{
		name: "faults-batch",
		why:  "least-loaded + fixed 60 s timeout, exp-crash faults, unbounded backoff retry, batch submit: fault clocks, eviction, retry re-insertion into a large pending queue; the path the fault sweeps take",
		m:    30, jobs: 140000,
		config: func(seed int64, _ *hierdrl.Trace) hierdrl.Config {
			cfg := hierdrl.RoundRobin(30)
			cfg.Name = "faults-batch"
			cfg.Alloc = hierdrl.AllocLeastLoaded
			cfg.DPM = hierdrl.DPMFixedTimeout
			cfg.FixedTimeoutSec = 60
			cfg.Faults = hierdrl.FaultExpCrash
			cfg.MTTFSec, cfg.MTTRSec = 20000, 600
			cfg.Retry = hierdrl.RetryBackoff
			cfg.RetryBackoffSec, cfg.RetryBackoffCapSec = 30, 600
			return withSeed(cfg, seed, nil)
		},
	},
	{
		name: "ckpt-resume",
		why:  "the paper's system with 9 in-memory Checkpoint -> Restore round trips mid-run: writes beside reads, the checkpoint container and the nine state_io.go files, on time, bytes and peak memory",
		m:    30, jobs: 16000, warmup: 4000, trips: 9,
		config: func(seed int64, warm *hierdrl.Trace) hierdrl.Config {
			return withSeed(hierdrl.Hierarchical(30), seed, warm)
		},
	},
}

// drl reports whether the configuration has a global DRL agent: the global.*
// layer metrics apply.
func (w *workload) drl() bool { return w.config(1, nil).Alloc == hierdrl.AllocDRL }

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizes returns the measured and warmup job counts and the chunk count.
func (w *workload) sizes(quick bool) (jobs, warmup, chunks int) {
	if !quick {
		return w.jobs, w.warmup, chunksPerPass
	}
	jobs = w.jobs / quickDivisor
	if w.warmup > 0 {
		warmup = w.warmup / quickDivisor
	}
	return jobs, warmup, quickChunks
}
