package hierdrl

import (
	"fmt"
	"math"

	"hierdrl/internal/cluster"
	"hierdrl/internal/global"
	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
	"hierdrl/internal/trace"
)

// Scale sizes an experiment. FullScale reproduces the paper's operating
// point; BenchScale keeps `go test -bench` runs tractable.
type Scale struct {
	// Jobs is the measured workload length (the paper reports at 95,000).
	Jobs int
	// WarmupJobs sizes the offline-phase rollout for DRL agents.
	WarmupJobs int
	// Seed drives workload generation and every learner.
	Seed int64
	// ClusterM is the reference cluster size of the *measured* runs; the
	// trace arrival rate is scaled to it (see SyntheticTraceForCluster).
	ClusterM int
}

// FullScale is the paper's configuration: 95,000 jobs on a 30/40-server
// cluster (~one simulated week).
func FullScale(m int) Scale {
	return Scale{Jobs: 95000, WarmupJobs: 20000, Seed: 1, ClusterM: m}
}

// BenchScale is a 20x-reduced configuration for benchmarks and CI.
func BenchScale(m int) Scale {
	return Scale{Jobs: 4750, WarmupJobs: 1000, Seed: 1, ClusterM: m}
}

// Validate checks the scale.
func (s Scale) Validate() error {
	if s.Jobs <= 0 || s.WarmupJobs < 0 || s.ClusterM <= 0 {
		return fmt.Errorf("hierdrl: invalid scale %+v", s)
	}
	return nil
}

func (s Scale) trace(seedOffset int64) *Trace {
	return SyntheticTraceForCluster(s.Jobs, s.ClusterM, s.Seed+seedOffset)
}

func (s Scale) warmupTrace(seedOffset int64) *Trace {
	if s.WarmupJobs == 0 {
		return nil
	}
	return SyntheticTraceForCluster(s.WarmupJobs, s.ClusterM, s.Seed+1000+seedOffset)
}

// Comparison holds the three-system results of Table I / Fig. 8 / Fig. 9.
type Comparison struct {
	RoundRobin   *Result
	DRLOnly      *Result
	Hierarchical *Result
}

// Rows returns the Table I rows in the paper's order.
func (c *Comparison) Rows() []Summary {
	return []Summary{c.RoundRobin.Summary, c.DRLOnly.Summary, c.Hierarchical.Summary}
}

// sweep runs one cell per element of cells through the bounded worker pool
// and returns the results in cell order. Every run derives its entire RNG
// chain from its own config and shares only immutable inputs (the trace), so
// a sweep's results are bitwise those of running the cells sequentially.
func sweep[C, R any](cells []C, run func(C) (R, error)) ([]R, error) {
	out := make([]R, len(cells))
	tasks := make([]func() error, len(cells))
	for i, c := range cells {
		tasks[i] = func() (err error) {
			out[i], err = run(c)
			return err
		}
	}
	if err := runParallel(tasks); err != nil {
		return nil, err
	}
	return out, nil
}

// RunComparison executes the paper's three systems on the same workload with
// M servers — the engine behind Table I (checkpointEvery = 0) and the
// Fig. 8/9 accumulated series (checkpointEvery > 0). The three systems run
// concurrently, each as one batch Session (via Run).
func RunComparison(m int, sc Scale, checkpointEvery int) (*Comparison, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	tr := sc.trace(0)
	warm := sc.warmupTrace(0)
	cfgs := []Config{RoundRobin(m), DRLOnly(m), Hierarchical(m)}
	for i := range cfgs {
		cfgs[i].Seed = sc.Seed
		cfgs[i].CheckpointEvery = checkpointEvery
		cfgs[i].WarmupTrace = warm // only the DRL systems consume it
	}
	res, err := sweep(cfgs, func(cfg Config) (*Result, error) {
		res, err := Run(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("hierdrl: %s: %w", cfg.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return &Comparison{RoundRobin: res[0], DRLOnly: res[1], Hierarchical: res[2]}, nil
}

// TradeoffCurves holds the Fig. 10 study: one point series per system.
type TradeoffCurves struct {
	Hierarchical []TradeoffPoint
	Fixed30      []TradeoffPoint
	Fixed60      []TradeoffPoint
	Fixed90      []TradeoffPoint
}

// All returns every point (for hypervolume comparisons).
func (tc *TradeoffCurves) All() [][]TradeoffPoint {
	return [][]TradeoffPoint{tc.Hierarchical, tc.Fixed30, tc.Fixed60, tc.Fixed90}
}

// RunTradeoff sweeps the latency-emphasis parameter lambda across all four
// systems of Fig. 10. lambda couples the reward weights coherently: the
// global tier uses W1 = 2(1-lambda) (power) and W2 = 2*lambda (latency
// proxy); the hierarchical local tier additionally sets its Eqn. (5) weight
// w = 1-lambda. The fixed-timeout baselines have no local knob — exactly why
// the paper calls their curves "not complete".
func RunTradeoff(m int, sc Scale, lambdas []float64) (*TradeoffCurves, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(lambdas) == 0 {
		return nil, fmt.Errorf("hierdrl: empty lambda sweep")
	}
	for _, lam := range lambdas {
		if lam <= 0 || lam >= 1 {
			return nil, fmt.Errorf("hierdrl: lambda %v outside (0,1)", lam)
		}
	}
	tr := sc.trace(0)
	warm := sc.warmupTrace(0)

	// One cell per (lambda, system) pair, lambda-major, hierarchical first.
	type cell struct {
		cfg   Config
		label string
		lam   float64
	}
	timeouts := []float64{30, 60, 90}
	var cells []cell
	for _, lam := range lambdas {
		hier := Hierarchical(m)
		hier.LocalRL.PowerWeight = 1 - lam
		cells = append(cells, cell{hier, "hierarchical", lam})
		for _, timeout := range timeouts {
			cells = append(cells, cell{FixedTimeoutBaseline(m, timeout), fmt.Sprintf("fixed-%.0f", timeout), lam})
		}
	}
	points, err := sweep(cells, func(c cell) (TradeoffPoint, error) {
		// Every system shares the seed, the warmup and the global weights.
		c.cfg.Seed = sc.Seed
		c.cfg.WarmupTrace = warm
		c.cfg.Global.W1 = 2 * (1 - c.lam)
		c.cfg.Global.W2 = 2 * c.lam
		res, err := Run(c.cfg, tr)
		if err != nil {
			return TradeoffPoint{}, fmt.Errorf("hierdrl: tradeoff %s lambda=%v: %w", c.label, c.lam, err)
		}
		return res.Tradeoff(c.label, c.lam), nil
	})
	if err != nil {
		return nil, err
	}
	out := &TradeoffCurves{}
	for i := 0; i < len(points); i += 1 + len(timeouts) {
		out.Hierarchical = append(out.Hierarchical, points[i])
		out.Fixed30 = append(out.Fixed30, points[i+1])
		out.Fixed60 = append(out.Fixed60, points[i+2])
		out.Fixed90 = append(out.Fixed90, points[i+3])
	}
	return out, nil
}

// heuristicAllocs are the non-learning allocation policies the fault sweeps
// compare.
var heuristicAllocs = []AllocPolicy{AllocRoundRobin, AllocRandom, AllocLeastLoaded, AllocPackFit}

// faultCell is one fault-sweep configuration: alloc under fault model faults
// with the given MTTF, a 600 s mean repair time, capped-backoff retries and a
// fixed 60 s local timeout.
func faultCell(name string, m int, seed int64, alloc AllocPolicy, faults FaultKind, mttf float64) Config {
	return Config{
		Name:            name,
		M:               m,
		Seed:            seed,
		Alloc:           alloc,
		DPM:             DPMFixedTimeout,
		FixedTimeoutSec: 60,
		Faults:          faults,
		MTTFSec:         mttf,
		MTTRSec:         600,
		Retry:           RetryBackoff,
	}
}

// FaultPoint is one cell of the fault sweep: an allocation policy run under
// a given mean time to failure.
type FaultPoint struct {
	Alloc   AllocPolicy
	MTTFSec float64
	Summary Summary
}

// RunFaultSweep runs every non-learning allocation policy against the same
// workload under increasing failure pressure (decreasing MTTF), with a fixed
// 600s mean repair time and capped-backoff retries — the robustness
// counterpart to RunComparison. It answers how gracefully each policy
// degrades: availability, completed-work latency, retries, and lost work per
// (policy, MTTF) cell. Points are ordered policy-major, matching the input
// mttfs order within each policy.
func RunFaultSweep(m int, sc Scale, mttfs []float64) ([]FaultPoint, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(mttfs) == 0 {
		return nil, fmt.Errorf("hierdrl: empty MTTF sweep")
	}
	for _, mttf := range mttfs {
		if mttf <= 0 || math.IsInf(mttf, 0) || math.IsNaN(mttf) {
			return nil, fmt.Errorf("hierdrl: MTTF %v must be positive and finite", mttf)
		}
	}
	tr := sc.trace(0)
	var cfgs []Config
	for _, alloc := range heuristicAllocs {
		for _, mttf := range mttfs {
			name := fmt.Sprintf("%s/mttf=%.0fs", alloc, mttf)
			cfgs = append(cfgs, faultCell(name, m, sc.Seed, alloc, FaultExpCrash, mttf))
		}
	}
	return sweep(cfgs, func(cfg Config) (FaultPoint, error) {
		res, err := Run(cfg, tr)
		if err != nil {
			return FaultPoint{}, fmt.Errorf("hierdrl: fault sweep %s: %w", cfg.Name, err)
		}
		return FaultPoint{Alloc: cfg.Alloc, MTTFSec: cfg.MTTFSec, Summary: res.Summary}, nil
	})
}

// FaultMatrixPoint is one cell of the fault-class matrix: an allocation
// policy run under one fault model at fixed offered load.
type FaultMatrixPoint struct {
	Alloc   AllocPolicy
	Faults  FaultKind
	Summary Summary
}

// RunFaultMatrix runs every non-learning allocation policy against the same
// workload under each fault class — independent exponential crashes,
// correlated rack crashes (one domain per ~6 servers), fail-slow degradation
// (default 0.25 speed factor), and rolling maintenance drains — the
// graceful-degradation counterpart to RunFaultSweep's MTTF pressure sweep.
// All crash/degrade cells share MTTF 30,000 s and MTTR 600 s so the columns
// differ only in failure *shape*, not failure *volume*; drains use the
// default 4 h cadence / 10 min window. Points are ordered policy-major,
// matching the model order {exp-crash, correlated-crash, degrade,
// maintenance-drain} within each policy.
func RunFaultMatrix(m int, sc Scale) ([]FaultMatrixPoint, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	tr := sc.trace(0)
	domains := EqualDomains(max(m/6, 1), m)
	var cfgs []Config
	for _, alloc := range heuristicAllocs {
		for _, model := range []FaultKind{FaultExpCrash, FaultCorrelatedCrash, FaultDegrade, FaultDrain} {
			cfg := faultCell(fmt.Sprintf("%s/%s", alloc, model), m, sc.Seed, alloc, model, 30000)
			if model == FaultCorrelatedCrash {
				cfg.Domains = domains
			}
			cfgs = append(cfgs, cfg)
		}
	}
	return sweep(cfgs, func(cfg Config) (FaultMatrixPoint, error) {
		res, err := Run(cfg, tr)
		if err != nil {
			return FaultMatrixPoint{}, fmt.Errorf("hierdrl: fault matrix %s: %w", cfg.Name, err)
		}
		return FaultMatrixPoint{Alloc: cfg.Alloc, Faults: cfg.Faults, Summary: res.Summary}, nil
	})
}

// ScenarioPoint is one cell of the scenario sweep: an allocation policy run
// on a registered scenario.
type ScenarioPoint struct {
	Scenario string
	Alloc    AllocPolicy
	Summary  Summary
}

// RunScenarioSweep runs every given allocation policy against every named
// scenario — the allocators × scenarios table of EXPERIMENTS.md. Each cell
// streams the scenario's workload through RunSource with a fixed-timeout
// (60 s) local tier, on the scenario's own cluster layout (including
// heterogeneous server classes). jobs > 0 caps each scenario's length (the
// scale scenarios would otherwise stream millions of jobs); seed drives the
// workload and every policy. Cells run concurrently through the worker pool;
// points are ordered scenario-major, matching the input orders.
func RunScenarioSweep(allocs []AllocPolicy, scenarios []string, jobs int, seed int64) ([]ScenarioPoint, error) {
	if len(allocs) == 0 || len(scenarios) == 0 {
		return nil, fmt.Errorf("hierdrl: empty scenario sweep")
	}
	type cell struct {
		scen  Scenario
		alloc AllocPolicy
	}
	var cells []cell
	for _, name := range scenarios {
		scen, ok := LookupScenario(name)
		if !ok {
			return nil, fmt.Errorf("hierdrl: unknown scenario %q", name)
		}
		for _, alloc := range allocs {
			cells = append(cells, cell{scen.Scaled(0, jobs), alloc})
		}
	}
	return sweep(cells, func(c cell) (ScenarioPoint, error) {
		cfg := Config{
			Name:            fmt.Sprintf("%s/%s", c.scen.Name, c.alloc),
			Seed:            seed,
			Alloc:           c.alloc,
			DPM:             DPMFixedTimeout,
			FixedTimeoutSec: 60,
		}
		c.scen.ApplyTo(&cfg)
		src, err := c.scen.Source(seed)
		if err != nil {
			return ScenarioPoint{}, err
		}
		res, err := RunSource(cfg, src)
		if err != nil {
			return ScenarioPoint{}, fmt.Errorf("hierdrl: scenario sweep %s: %w", cfg.Name, err)
		}
		return ScenarioPoint{Scenario: c.scen.Name, Alloc: c.alloc, Summary: res.Summary}, nil
	})
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
