package hierdrl

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"hierdrl/internal/cluster"
	"hierdrl/internal/global"
	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
	"hierdrl/internal/trace"
)

// Scale sizes a synthetic workload: Jobs measured jobs on a trace whose
// arrival rate is calibrated to ClusterM servers (SyntheticTraceForCluster),
// after a WarmupJobs-job offline rollout for DRL agents. FullScale reproduces
// the paper's operating point; BenchScale keeps CI and benchmark runs
// tractable.
type Scale struct {
	// Jobs is the measured workload length (the paper reports at 95,000).
	Jobs int
	// WarmupJobs sizes the offline-phase rollout for DRL agents.
	WarmupJobs int
	// ClusterM is the reference cluster size of the *measured* runs; the
	// trace arrival rate is scaled to it (see SyntheticTraceForCluster).
	ClusterM int
}

// FullScale is the paper's configuration: 95,000 jobs on a 30/40-server
// cluster (~one simulated week).
func FullScale(m int) Scale {
	return Scale{Jobs: 95000, WarmupJobs: 20000, ClusterM: m}
}

// BenchScale is a 20x-reduced configuration for benchmarks and CI.
func BenchScale(m int) Scale {
	return Scale{Jobs: 4750, WarmupJobs: 1000, ClusterM: m}
}

// Validate checks the scale.
func (s Scale) Validate() error {
	if s.Jobs <= 0 || s.WarmupJobs < 0 || s.ClusterM <= 0 {
		return fmt.Errorf("hierdrl: invalid scale %+v", s)
	}
	return nil
}

// Cell is one configuration of a Study: a Config and the workload it runs
// on. The workload is a registered scenario when Scenario is set, else the
// synthetic trace Scale sizes.
type Cell struct {
	// Name labels the cell in errors.
	Name   string
	Config Config
	// Scale sizes the synthetic workload: at seed s the cell runs
	// SyntheticTraceForCluster(Jobs, ClusterM, s) and, when WarmupJobs > 0,
	// hands SyntheticTraceForCluster(WarmupJobs, ClusterM, s+1000) to the
	// config as its WarmupTrace (only DRL allocation consumes it). Both
	// traces, like a scenario's, draw from streams chain-seeded from their
	// seed, never from the session's root generator that Config.Seed = s
	// seeds. A scenario cell reads only Jobs: a positive value caps the
	// scenario's length.
	Scale Scale
	// Scenario names a registered scenario, streamed through RunSource on the
	// scenario's own cluster layout (Scenario.ApplyTo) from Source(seed).
	Scenario string
}

// Study is a grid of cells crossed with seeds: the shape of every
// session-backed experiment of the paper's evaluation and the robustness
// sweeps.
type Study struct {
	Cells []Cell
	Seeds []int64
}

// Run executes every (cell, seed) pair and returns the results indexed
// [cell][seed] in input order. A seed becomes the run's Config.Seed and
// seeds its workload, whose streams are chain-seeded from it and so never
// shared with the session's root generator. Each distinct synthetic trace
// is generated once and shared read-only by every cell that runs on it.
// Runs fan out over the bounded worker pool; every run derives its whole
// RNG chain from its own config, so the results are bitwise those of calling
// Run / RunSource on each pair in turn (runParallel returns the lowest-index
// error).
func (st Study) Run() ([][]*Result, error) {
	if len(st.Cells) == 0 || len(st.Seeds) == 0 {
		return nil, fmt.Errorf("hierdrl: study needs at least one cell and one seed")
	}
	traces := map[[3]int64]*Trace{} // (jobs, M, seed) -> shared trace
	trace := func(n, m int, seed int64) *Trace {
		k := [3]int64{int64(n), int64(m), seed}
		if traces[k] == nil {
			traces[k] = SyntheticTraceForCluster(n, m, seed)
		}
		return traces[k]
	}
	out := make([][]*Result, len(st.Cells))
	var tasks []func() error
	// Runs that fill every core step their agents inline: a train-step
	// helper (DESIGN.md §7) beside them would only take a core from another
	// run.
	var opts []SessionOption
	if 2*len(st.Cells)*len(st.Seeds) > runtime.GOMAXPROCS(0) {
		opts = append(opts, inlineTraining)
	}
	for i, c := range st.Cells {
		var scen Scenario
		if c.Scenario != "" {
			s, ok := LookupScenario(c.Scenario)
			if !ok {
				return nil, fmt.Errorf("hierdrl: study cell %q: unknown scenario %q", c.Name, c.Scenario)
			}
			scen = s.Scaled(0, c.Scale.Jobs)
		} else if c.Scale == (Scale{}) {
			return nil, fmt.Errorf("hierdrl: study cell %q has no workload", c.Name)
		} else if err := c.Scale.Validate(); err != nil {
			return nil, fmt.Errorf("hierdrl: study cell %q: %w", c.Name, err)
		}
		out[i] = make([]*Result, len(st.Seeds))
		for k, seed := range st.Seeds {
			cfg := c.Config
			cfg.Seed = seed
			var tr *Trace
			var src *WorkloadSource
			if c.Scenario != "" {
				scen.ApplyTo(&cfg)
				var err error
				if src, err = scen.Source(seed); err != nil {
					return nil, err
				}
			} else {
				tr = trace(c.Scale.Jobs, c.Scale.ClusterM, seed)
				if c.Scale.WarmupJobs > 0 {
					cfg.WarmupTrace = trace(c.Scale.WarmupJobs, c.Scale.ClusterM, seed+1000)
				}
			}
			tasks = append(tasks, func() (err error) {
				if src != nil {
					out[i][k], err = RunSource(cfg, src, opts...)
				} else {
					out[i][k], err = Run(cfg, tr, opts...)
				}
				if err != nil {
					return fmt.Errorf("hierdrl: study cell %q seed %d: %w", c.Name, seed, err)
				}
				return nil
			})
		}
	}
	if err := runParallel(tasks); err != nil {
		return nil, err
	}
	return out, nil
}

// MedianRange reduces one metric across a study's seeds (typically a Summary
// field of one cell's results) to its median, minimum and maximum. The median
// of an even count is the mean of the two middle values; xs is not modified,
// and an empty xs gives NaN.
func MedianRange(xs []float64) (median, lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	median = s[n/2]
	if n%2 == 0 {
		median = (s[n/2-1] + s[n/2]) / 2
	}
	return median, s[0], s[n-1]
}

// PredictorScore reports one predictor's accuracy on a held-out stream (the
// X1 extension experiment motivating the LSTM choice of Sec. VI-A).
type PredictorScore struct {
	Name string
	// RMSELog is the root-mean-squared error in log1p space (robust to the
	// heavy-tailed gap distribution).
	RMSELog float64
	// MAE is the mean absolute error in seconds.
	MAE float64
	// Samples scored.
	Samples int
}

// RunPredictorComparison trains each predictor online over one server's
// arrival stream and scores one-step-ahead predictions on the second half of
// the stream.
func RunPredictorComparison(nArrivals int, seed int64) ([]PredictorScore, error) {
	if nArrivals < 200 {
		return nil, fmt.Errorf("hierdrl: need at least 200 arrivals, got %d", nArrivals)
	}
	// Per-server arrival stream: the cluster-level trace thinned by round
	// robin across 30 servers, preserving diurnal/burst structure.
	tr := SyntheticTrace(nArrivals*30, seed)
	arrivals := make([]float64, 0, nArrivals)
	for i := 0; i < tr.Len(); i += 30 {
		arrivals = append(arrivals, tr.Jobs[i].Arrival)
	}

	rng := mat.NewRNG(seed)
	lcfg := lstm.DefaultPredictorConfig()
	lcfg.Lookback = 20
	lcfg.TrainEvery = 4
	lcfg.BatchSize = 6
	preds := []struct {
		name string
		p    local.ArrivalPredictor
	}{
		{"lstm", lstm.NewPredictor(lcfg, rng.Split())},
		{"ewma", local.NewEWMA(0.3)},
		{"last-value", local.NewLastValue()},
		{"window-mean", local.NewWindowMean(10)},
	}

	scores := make([]PredictorScore, len(preds))
	half := len(arrivals) / 2
	for i, pr := range preds {
		var seLog, ae float64
		n := 0
		for k, t := range arrivals {
			if k >= half && k+1 < len(arrivals) {
				actual := arrivals[k+1] - t
				pred := pr.p.Predict()
				if !math.IsInf(pred, 0) {
					dLog := math.Log1p(pred) - math.Log1p(actual)
					seLog += dLog * dLog
					ae += math.Abs(pred - actual)
					n++
				}
			}
			pr.p.ObserveArrival(t)
		}
		scores[i] = PredictorScore{
			Name:    pr.name,
			RMSELog: math.Sqrt(seLog / float64(n)),
			MAE:     ae / float64(n),
			Samples: n,
		}
	}
	return scores, nil
}

// AblationResult reports the X2 experiment: offline Q-regression convergence
// of the Fig. 6 architecture variants on identical replayed transitions.
type AblationResult struct {
	Variant   string
	K         int
	Params    int
	FinalLoss float64
}

// RunAblation compares the full architecture against no-autoencoder and
// no-weight-sharing variants (and different K) by training each for the same
// number of minibatch steps on the same synthetic Q-regression task.
func RunAblation(m, steps int, ks []int, seed int64) ([]AblationResult, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("hierdrl: steps must be positive")
	}
	var out []AblationResult
	for _, k := range ks {
		if k <= 0 || m%k != 0 {
			return nil, fmt.Errorf("hierdrl: K=%d does not divide M=%d", k, m)
		}
		for _, variant := range []struct {
			name         string
			useAE, share bool
		}{
			{"full", true, true},
			{"no-autoencoder", false, true},
			{"no-weight-sharing", true, false},
		} {
			loss, params, err := ablationRun(m, k, steps, variant.useAE, variant.share, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, AblationResult{
				Variant:   variant.name,
				K:         k,
				Params:    params,
				FinalLoss: loss,
			})
		}
	}
	return out, nil
}

func ablationRun(m, k, steps int, useAE, share bool, seed int64) (loss float64, params int, err error) {
	cfg := global.DefaultConfig(m)
	cfg.K = k
	cfg.UseAutoencoder = useAE
	cfg.ShareWeights = share
	if err := cfg.Validate(m); err != nil {
		return 0, 0, err
	}
	enc, err := global.NewEncoder(m, k, cfg.DurationNormSec)
	if err != nil {
		return 0, 0, err
	}
	rng := mat.NewRNG(seed)
	net := global.NewQNetwork(enc, cfg, rng.Split())
	opt := nn.NewAdam(cfg.LearningRate)

	// Shared synthetic task across variants: target = the chosen server's
	// negated CPU load minus the job's CPU demand — a proxy for "prefer
	// lightly loaded servers for big jobs" that every variant can express.
	gen := mat.NewRNG(seed + 7)
	mkItem := func() global.TrainItem {
		v := randomView(m, gen)
		j := randomJob(gen)
		s := enc.Encode(v, j)
		a := gen.Intn(m)
		target := -(v.Util[a][trace.CPU] + j.Req[trace.CPU])
		return global.TrainItem{S: s, Action: a, Target: target}
	}
	var last float64
	for i := 0; i < steps; i++ {
		batch := make([]global.TrainItem, 16)
		for b := range batch {
			batch[b] = mkItem()
		}
		last = net.TrainBatch(batch, opt)
	}
	return last, net.NumParams(), nil
}

// randomView synthesizes a plausible cluster snapshot for offline ablation
// training.
func randomView(m int, rng *mat.RNG) *cluster.View {
	v := &cluster.View{
		M:        m,
		Util:     make([]cluster.Resources, m),
		Pending:  make([]cluster.Resources, m),
		QueueLen: make([]int, m),
		InSystem: make([]int, m),
		State:    make([]cluster.PowerState, m),
	}
	for i := 0; i < m; i++ {
		cpu := rng.Float64()
		v.Util[i] = cluster.Resources{cpu, cpu * rng.Float64(), cpu * rng.Float64()}
		v.State[i] = cluster.StateActive
	}
	return v
}

// randomJob synthesizes a plausible arriving job for offline ablation
// training.
func randomJob(rng *mat.RNG) *cluster.Job {
	cpu := 0.02 + 0.3*rng.Float64()
	return &cluster.Job{
		ID:       0,
		Duration: 60 + rng.Float64()*7000,
		Req:      cluster.Resources{cpu, cpu * 0.8, cpu * 0.4},
		Server:   -1,
	}
}
