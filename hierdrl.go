// Package hierdrl reproduces "A Hierarchical Framework of Cloud Resource
// Allocation and Power Management Using Deep Reinforcement Learning"
// (Liu et al., ICDCS 2017) as a runnable Go library.
//
// The package wires the paper's two tiers around a discrete-event cluster
// simulator:
//
//   - the global tier dispatches every arriving VM/job to a server with a
//     deep-RL agent (autoencoder + weight-shared Sub-Q network, deep
//     Q-learning for SMDP, experience replay, epsilon-greedy exploration);
//   - the local tier power-manages each server independently with a
//     model-free RL timeout policy fed by an LSTM inter-arrival predictor.
//
// The primary entry point is the Session: a long-lived run that accepts
// jobs incrementally (Submit / SubmitTrace), advances the simulated clock
// under caller control (Step / StepUntil / Drain), exposes live state
// (Snapshot, Observer hooks), honors context cancellation, and produces the
// paper's measurements (Result). Quickstart:
//
//	s, err := hierdrl.NewSession(hierdrl.Hierarchical(30))
//	if err != nil { ... }
//	defer s.Close()
//	s.SubmitTrace(hierdrl.SyntheticTrace(10000, 1)) // or s.Submit(job) per job
//	if err := s.Drain(); err != nil { ... }
//	res, err := s.Result()
//	if err != nil { ... }
//	fmt.Println(res.Summary)
//
// The batch helper Run(cfg, tr) wraps exactly that sequence; a Study fans
// batched runs over a grid of cells and seeds out in parallel. Custom
// allocation policies and power managers plug in through RegisterAllocator /
// RegisterPowerManager, after which the Config.Alloc / Config.DPM strings
// resolve to them like to the built-ins. Workload predictors, fault models
// and retry policies are closed sets (Predictors, FaultModels,
// RetryPolicies).
//
// The three preset constructors mirror the paper's evaluation systems:
// RoundRobin (baseline: even dispatch, servers always on), DRLOnly (DRL
// allocation with ad-hoc immediate sleep, Fig. 4(a)), and Hierarchical (DRL
// allocation plus the RL/LSTM local tier, Fig. 4(b)). See EXPERIMENTS.md for
// the Table I / Fig. 8-10 reproductions.
package hierdrl

import (
	"strconv"

	"hierdrl/internal/cluster"
	"hierdrl/internal/global"
	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
	"hierdrl/internal/metrics"
	"hierdrl/internal/trace"
	"hierdrl/internal/workload"
)

// Re-exported result types so downstream users never import internal
// packages.
type (
	// Summary is one Table I row: accumulated energy/latency plus averages.
	Summary = metrics.Summary
	// Checkpoint is one Fig. 8/9 series point.
	Checkpoint = metrics.Checkpoint
	// TradeoffPoint is one Fig. 10 point.
	TradeoffPoint = metrics.TradeoffPoint
	// Trace is an arrival-ordered job workload.
	Trace = trace.Trace
	// TraceStats summarizes a workload.
	TraceStats = trace.Stats
	// Job is one workload record: an arrival instant, a duration, and
	// per-dimension resource demands. It is both a Trace element and the
	// unit of streaming ingestion (Session.Submit).
	Job = trace.Job
)

// JoulesPerKWh converts joules to kilowatt-hours.
const JoulesPerKWh = metrics.JoulesPerKWh

// ParetoFrontOf filters trade-off points to the non-dominated subset, sorted
// by latency.
func ParetoFrontOf(points []TradeoffPoint) []TradeoffPoint {
	return metrics.ParetoFront(points)
}

// HypervolumeOf returns the area a trade-off curve dominates relative to a
// reference corner — the quantitative form of the paper's "smallest area
// against the axes" comparison in Fig. 10 (larger = better).
func HypervolumeOf(points []TradeoffPoint, refLat, refEnergy float64) float64 {
	return metrics.HypervolumeArea(points, refLat, refEnergy)
}

// AllocPolicy selects the global-tier allocation policy.
type AllocPolicy string

// Allocation policies.
const (
	AllocRoundRobin  AllocPolicy = "round-robin"
	AllocRandom      AllocPolicy = "random"
	AllocLeastLoaded AllocPolicy = "least-loaded"
	AllocPackFit     AllocPolicy = "pack-fit"
	AllocDRL         AllocPolicy = "drl"
)

// DPMKind selects the local-tier power-management policy.
type DPMKind string

// Power-management policies.
const (
	DPMAlwaysOn     DPMKind = "always-on"
	DPMAdHoc        DPMKind = "ad-hoc"
	DPMFixedTimeout DPMKind = "fixed-timeout"
	DPMRL           DPMKind = "rl"
)

// PredictorKind selects the workload predictor feeding the RL power manager.
type PredictorKind string

// Predictors.
const (
	PredictorLSTM       PredictorKind = "lstm"
	PredictorEWMA       PredictorKind = "ewma"
	PredictorLastValue  PredictorKind = "last-value"
	PredictorWindowMean PredictorKind = "window-mean"
)

// FaultKind selects the failure/repair model.
type FaultKind string

// Fault models.
const (
	// FaultNone disables fault injection (the default).
	FaultNone FaultKind = "none"
	// FaultExpCrash gives every server an independent exponential
	// crash/repair process parameterized by MTTFSec/MTTRSec, derived from
	// (Seed, serverID) so the schedule is independent of the workload.
	FaultExpCrash FaultKind = "exp-crash"
	// FaultCorrelatedCrash crashes whole failure domains (racks/zones)
	// together: one exponential crash/repair process per domain (MTTFSec/
	// MTTRSec), derived from (Seed, domain index), with every member down
	// and repaired at identical instants. Domains come from Config.Domains,
	// falling back to one domain per Cluster.Classes entry, then to the
	// whole cluster as a single domain.
	FaultCorrelatedCrash FaultKind = "correlated-crash"
	// FaultDegrade is the fail-slow model: instead of dying, a server's
	// effective speed is multiplied by DegradeFactor for an exponential
	// window (MTTFSec mean time to onset, MTTRSec mean window length).
	// Running jobs keep their committed finish instants; jobs started while
	// degraded stretch by 1/DegradeFactor; allocators observe the degraded
	// speed through the cluster view.
	FaultDegrade FaultKind = "degrade"
	// FaultDrain models planned maintenance: every DrainEverySec (staggered
	// evenly across servers) a server stops accepting work, migrates its
	// queue through the Retry policy (counted JobsMigrated, not
	// JobsInterrupted), finishes its running jobs, then powers off for
	// DrainWindowSec before rejoining cold. The schedule is RNG-free.
	FaultDrain FaultKind = "maintenance-drain"
)

// RetryKind selects what happens to jobs evicted by a server crash.
type RetryKind string

// Retry policies.
const (
	// RetryImmediate requeues every evicted job at the crash instant.
	RetryImmediate RetryKind = "immediate"
	// RetryBackoff requeues with capped exponential delay
	// (RetryBackoffSec doubling up to RetryBackoffCapSec), dropping after
	// RetryMax attempts when RetryMax > 0.
	RetryBackoff RetryKind = "backoff"
	// RetryDropAfter requeues immediately up to RetryMax attempts, then
	// drops the job.
	RetryDropAfter RetryKind = "drop-after"
)

// Config describes one end-to-end experiment.
type Config struct {
	// Name labels the run in reports.
	Name string
	// M is the cluster size.
	M int
	// Seed drives every stochastic component.
	Seed int64

	// Alloc selects the global tier.
	Alloc AllocPolicy
	// Global configures the DRL agent (used when Alloc == AllocDRL).
	Global global.Config
	// WarmupTrace, when non-nil and Alloc == AllocDRL, drives the offline
	// phase of Algorithm 1: high-epsilon rollouts fill the experience
	// memory, the autoencoder pretrains on observed group states, and
	// fitted-Q sweeps refine the DNN before the measured run.
	WarmupTrace *Trace
	// WarmupEpsilon is the exploration rate during warmup (default 1.0:
	// the "arbitrary policy" of Algorithm 1).
	WarmupEpsilon float64
	// AEPretrainEpochs and OfflineSweeps size the offline phase.
	AEPretrainEpochs int
	OfflineSweeps    int
	// PostWarmupEpsilon is the exploration rate entering the measured run
	// (<= 0 restores the pre-warmup epsilon).
	PostWarmupEpsilon float64

	// DPM selects the local tier.
	DPM DPMKind
	// FixedTimeoutSec parameterizes DPMFixedTimeout.
	FixedTimeoutSec float64
	// LocalRL configures the RL power manager (used when DPM == DPMRL).
	LocalRL local.RLConfig
	// Predictor selects the workload predictor for DPMRL.
	Predictor PredictorKind
	// LSTMPredictor configures the LSTM predictor.
	LSTMPredictor lstm.PredictorConfig

	// Faults selects the failure/repair model (default FaultNone). With
	// FaultExpCrash every server crashes and repairs on an independent
	// exponential process; running and queued jobs are evicted into the
	// session's pending queue through the Retry policy, and allocation
	// degrades gracefully around the dead servers.
	Faults FaultKind
	// MTTFSec/MTTRSec parameterize FaultExpCrash (mean time to failure /
	// repair, seconds; both must be positive).
	MTTFSec float64
	MTTRSec float64
	// Retry selects the requeue policy for crash-evicted jobs (default
	// RetryImmediate; only consulted when Faults is active).
	Retry RetryKind
	// RetryBackoffSec/RetryBackoffCapSec parameterize RetryBackoff (defaults
	// 30s base doubling to a 600s cap).
	RetryBackoffSec    float64
	RetryBackoffCapSec float64
	// RetryMax bounds retry attempts for RetryBackoff (0 = unbounded) and
	// RetryDropAfter (required > 0); beyond it the job is dropped and
	// counted in Summary.JobsLost.
	RetryMax int
	// Domains partitions the cluster into contiguous failure domains
	// (racks/zones) for FaultCorrelatedCrash; counts must sum to M. Empty
	// falls back to one domain per Cluster.Classes entry when classes are
	// configured, else the whole cluster forms one domain.
	Domains []FailureDomain
	// DegradeFactor is FaultDegrade's speed multiplier in (0, 1) applied
	// while a server is fail-slow (default 0.25).
	DegradeFactor float64
	// DrainEverySec/DrainWindowSec parameterize FaultDrain: the period
	// between a server's maintenance windows and the powered-off window
	// length (defaults 14400s / 600s).
	DrainEverySec  float64
	DrainWindowSec float64

	// CheckpointEvery records a Fig. 8/9 series point after this many job
	// completions (0 disables).
	CheckpointEvery int
	// Cluster overrides the cluster configuration; when zero-valued it is
	// derived from M via cluster.DefaultConfig.
	Cluster cluster.Config
}

// RoundRobin returns the paper's baseline: round-robin dispatch with servers
// always on.
func RoundRobin(m int) Config {
	return Config{
		Name:  "round-robin",
		M:     m,
		Seed:  1,
		Alloc: AllocRoundRobin,
		DPM:   DPMAlwaysOn,
	}
}

// DRLOnly returns the paper's middle comparator: DRL-based allocation with
// ad-hoc power management (servers sleep the instant they go idle,
// Fig. 4(a)).
func DRLOnly(m int) Config {
	return Config{
		Name:              "drl-only",
		M:                 m,
		Seed:              1,
		Alloc:             AllocDRL,
		Global:            global.DefaultConfig(m),
		WarmupEpsilon:     1.0,
		PostWarmupEpsilon: 0.08,
		DPM:               DPMAdHoc,
	}
}

// Hierarchical returns the paper's proposed system: DRL allocation plus the
// RL/LSTM local power-management tier (Fig. 4(b)).
func Hierarchical(m int) Config {
	lp := lstm.DefaultPredictorConfig()
	// Calibrated online-training cadence: every 32 arrivals, 4 windows per
	// round — enough signal for the timeout categories while keeping the
	// per-server BPTT cost tractable at 95k-job scale.
	lp.TrainEvery = 32
	lp.BatchSize = 4
	return Config{
		Name:              "hierarchical",
		M:                 m,
		Seed:              1,
		Alloc:             AllocDRL,
		Global:            global.DefaultConfig(m),
		WarmupEpsilon:     1.0,
		PostWarmupEpsilon: 0.08,
		DPM:               DPMRL,
		LocalRL:           local.DefaultRLConfig(),
		Predictor:         PredictorLSTM,
		LSTMPredictor:     lp,
	}
}

// FixedTimeoutBaseline returns the Fig. 10 baseline: DRL allocation with a
// fixed local timeout. It is named with its timeout ("fixed-timeout-60s"),
// so baselines that differ only in the timeout report distinct policies.
func FixedTimeoutBaseline(m int, timeoutSec float64) Config {
	cfg := DRLOnly(m)
	cfg.Name = "fixed-timeout-" + strconv.FormatFloat(timeoutSec, 'g', -1, 64) + "s"
	cfg.DPM = DPMFixedTimeout
	cfg.FixedTimeoutSec = timeoutSec
	return cfg
}

// PaperWorkload is the synthetic Google-style workload of the paper's
// evaluation (DESIGN.md §1 documents the substitution for the proprietary
// Google cluster traces): n jobs whose arrival rate is scaled by m/30, so an
// m-server cluster sees the relative offered load of the paper's 30-server
// configuration (~20% of aggregate CPU capacity). At m = 30 one simulated
// week holds ~95,000 jobs: a diurnal swing of amplitude 0.35, 1.8x MMPP
// bursts about every 4 h lasting ~5 min, log-normal durations (median
// 650 s) clipped to [1 min, 2 h], and small log-normal demands with memory
// correlated to CPU.
func PaperWorkload(n, m int) WorkloadConfig {
	return WorkloadConfig{
		NumJobs: n,
		Base:    WorkloadBase{Kind: BaseDiurnal, Rate: 95000.0 / (7 * 86400) * (float64(m) / 30), Amplitude: 0.35},
		Mods:    []WorkloadModulator{{Kind: ModMMPP, Factor: 1.8, MeanEverySec: 4 * 3600, MeanLenSec: 300}},
		Classes: []WorkloadClass{{
			Name:           "google",
			Weight:         1,
			Duration:       WorkloadDist{Kind: DistLogNormal, Median: 650, Sigma: 0.9},
			CPU:            WorkloadDist{Kind: DistLogNormal, Median: 0.035, Sigma: 0.8},
			MemCorrelation: 0.7,
			Disk:           WorkloadDist{Kind: DistLogNormal, Median: 0.010, Sigma: 0.7},
		}},
	}
}

// GenerateTrace materializes a workload: the cfg.NumJobs jobs that a
// WorkloadSource compiled from cfg at seed streams, in one Trace.
func GenerateTrace(cfg WorkloadConfig, seed int64) (*Trace, error) {
	src, err := workload.NewSource(cfg, seed)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Jobs: make([]Job, 0, cfg.NumJobs)}
	for j, ok := src.Next(); ok; j, ok = src.Next() {
		tr.Jobs = append(tr.Jobs, j)
	}
	return tr, nil
}

// SyntheticTrace is the paper workload at its 30-server operating point:
// SyntheticTraceForCluster(n, 30, seed).
func SyntheticTrace(n int, seed int64) *Trace { return SyntheticTraceForCluster(n, 30, seed) }

// SyntheticTraceForCluster materializes PaperWorkload(n, m) at seed. Use it
// when evaluating reduced-size clusters so results are not dominated by
// saturation effects. It panics if n or m is not positive.
func SyntheticTraceForCluster(n, m int, seed int64) *Trace {
	tr, err := GenerateTrace(PaperWorkload(n, m), seed)
	if err != nil {
		panic(err)
	}
	return tr
}

// Result carries everything one run produces.
type Result struct {
	// Summary is the Table I row.
	Summary Summary
	// Checkpoints is the Fig. 8/9 series (empty unless CheckpointEvery > 0).
	Checkpoints []Checkpoint
	// AgentDiag describes the DRL agent's learning state ("" for
	// non-learning allocators).
	AgentDiag string
	// TotalWakeups and TotalShutdowns repeat Summary.Wakeups and
	// Summary.Shutdowns.
	//
	// Deprecated: read Summary.Wakeups and Summary.Shutdowns. The fields stay
	// because the repository benchmark (bench/) reads them.
	TotalWakeups   int64
	TotalShutdowns int64
}

// Tradeoff converts the result into a Fig. 10 point.
func (r *Result) Tradeoff(label string, weight float64) TradeoffPoint {
	return TradeoffPoint{
		Label:            label,
		Weight:           weight,
		AvgLatencySec:    r.Summary.AvgLatencySec,
		AvgEnergyJPerJob: r.Summary.AvgEnergyJPerJob,
	}
}
