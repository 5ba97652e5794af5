// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Sec. VII), plus micro-benchmarks of the hot components. The
// experiment benchmarks run reduced workloads (Table I and Fig. 8/9 the
// 20x-reduced BenchScale) through a one-seed Study and report
// the paper's metrics (energy, accumulated latency, average power) through
// b.ReportMetric, so `go test -bench=.` regenerates every row/series shape;
// `cmd/experiments -scale full` reproduces the full 95,000-job operating
// point.
//
// Nothing here gates: wall time is report-only (the repository benchmark's
// `-stage units` reads the micro-benchmarks named in bench/metrics.go by
// name), and the allocation counts they print are asserted by the
// AllocsPerRun tests beside the code, which plain `go test ./...` runs.
package hierdrl_test

import (
	"testing"

	"hierdrl"
	"hierdrl/internal/cluster"
	"hierdrl/internal/global"
	"hierdrl/internal/lstm"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
	"hierdrl/internal/sim"
)

// threeSystems runs the paper's three systems (round-robin, DRL-only,
// hierarchical) on BenchScale(m) through a one-seed study, recording the
// Fig. 8/9 series every `every` jobs when every > 0.
func threeSystems(b *testing.B, m, every int) []*hierdrl.Result {
	b.Helper()
	var cells []hierdrl.Cell
	for _, cfg := range []hierdrl.Config{hierdrl.RoundRobin(m), hierdrl.DRLOnly(m), hierdrl.Hierarchical(m)} {
		cfg.CheckpointEvery = every
		cells = append(cells, hierdrl.Cell{Name: cfg.Name, Config: cfg, Scale: hierdrl.BenchScale(m)})
	}
	res, err := hierdrl.Study{Cells: cells, Seeds: []int64{1}}.Run()
	if err != nil {
		b.Fatal(err)
	}
	return []*hierdrl.Result{res[0][0], res[1][0], res[2][0]}
}

func reportComparison(b *testing.B, runs []*hierdrl.Result) {
	b.Helper()
	for _, r := range runs {
		s := r.Summary
		b.ReportMetric(s.EnergykWh, s.Policy+"_energy_kWh")
		b.ReportMetric(s.AccLatencySec/1e6, s.Policy+"_latency_Ms")
		b.ReportMetric(s.AvgPowerW, s.Policy+"_power_W")
	}
}

// BenchmarkTable1_M30 regenerates the M=30 block of Table I.
func BenchmarkTable1_M30(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := threeSystems(b, 30, 0)
		if i == b.N-1 {
			reportComparison(b, runs)
		}
	}
}

// BenchmarkTable1_M40 regenerates the M=40 block of Table I.
func BenchmarkTable1_M40(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := threeSystems(b, 40, 0)
		if i == b.N-1 {
			reportComparison(b, runs)
		}
	}
}

// BenchmarkFig8_M30 regenerates the Fig. 8 accumulated latency/energy series
// (M=30); the checkpoint count mirrors the paper's plotted resolution.
func BenchmarkFig8_M30(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := threeSystems(b, 30, hierdrl.BenchScale(30).Jobs/19)
		if i == b.N-1 {
			reportComparison(b, runs)
			b.ReportMetric(float64(len(runs[2].Checkpoints)), "series_points")
		}
	}
}

// BenchmarkFig9_M40 regenerates the Fig. 9 series (M=40).
func BenchmarkFig9_M40(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := threeSystems(b, 40, hierdrl.BenchScale(40).Jobs/19)
		if i == b.N-1 {
			reportComparison(b, runs)
			b.ReportMetric(float64(len(runs[2].Checkpoints)), "series_points")
		}
	}
}

// BenchmarkFig10_Tradeoff regenerates two curves of the Fig. 10
// latency/energy trade-off study — the hierarchical lambda sweep and the
// fixed 60 s timeout baseline, lambda weighting the global reward as in
// cmd/experiments — and reports each curve's dominated hypervolume (larger =
// better trade-off).
func BenchmarkFig10_Tradeoff(b *testing.B) {
	const m = 10
	sc := hierdrl.Scale{Jobs: 1200, WarmupJobs: 400, ClusterM: m}
	lambdas := []float64{0.25, 0.75}
	var cells []hierdrl.Cell
	for _, lam := range lambdas {
		hier := hierdrl.Hierarchical(m)
		hier.LocalRL.PowerWeight = 1 - lam
		for _, cfg := range []hierdrl.Config{hier, hierdrl.FixedTimeoutBaseline(m, 60)} {
			cfg.Global.W1, cfg.Global.W2 = 2*(1-lam), 2*lam
			cells = append(cells, hierdrl.Cell{Name: cfg.Name, Config: cfg, Scale: sc})
		}
	}
	for i := 0; i < b.N; i++ {
		res, err := hierdrl.Study{Cells: cells, Seeds: []int64{1}}.Run()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			curves := make([][]hierdrl.TradeoffPoint, 2) // hierarchical, fixed-60
			var refLat, refE float64
			for k, runs := range res {
				p := runs[0].Tradeoff(cells[k].Name, lambdas[k/2])
				curves[k%2] = append(curves[k%2], p)
				refLat = max(refLat, p.AvgLatencySec)
				refE = max(refE, p.AvgEnergyJPerJob)
			}
			refLat *= 1.05
			refE *= 1.05
			b.ReportMetric(hierdrl.HypervolumeOf(curves[0], refLat, refE)/1e6, "hier_hypervol")
			b.ReportMetric(hierdrl.HypervolumeOf(curves[1], refLat, refE)/1e6, "fixed60_hypervol")
		}
	}
}

// BenchmarkX1_LSTMPredictor regenerates the predictor-accuracy extension
// study (LSTM vs linear-history baselines, Sec. VI-A motivation).
func BenchmarkX1_LSTMPredictor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scores, err := hierdrl.RunPredictorComparison(800, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, s := range scores {
				b.ReportMetric(s.RMSELog, s.Name+"_rmse_log")
			}
		}
	}
}

// BenchmarkX2_Ablation regenerates the Fig. 6 architecture ablation
// (autoencoder and weight sharing, K in {2,3}).
func BenchmarkX2_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := hierdrl.RunAblation(12, 60, []int{2, 3}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				if r.K == 3 {
					b.ReportMetric(r.FinalLoss, r.Variant+"_loss")
				}
			}
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkPaperDRLPass is one pass of the repository benchmark's paper-drl
// workload (DRLOnly(30), 8,000 warmup + 44,000 measured jobs, seed 1) as an
// in-process benchmark, so `make profile-drl` can attribute the global tier's
// cost with pprof.
func BenchmarkPaperDRLPass(b *testing.B) {
	cfg := hierdrl.DRLOnly(30)
	cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(8000, 30, 1001)
	tr := hierdrl.SyntheticTraceForCluster(44000, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierdrl.Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperHierPass is one pass of the repository benchmark's paper-hier
// workload (Hierarchical(30), 8,000 warmup + 28,000 measured jobs, seed 1) as
// an in-process benchmark, so `make profile-hier` can attribute the cost of
// the paper's whole system — global tier and per-server LSTM + RL — with
// pprof.
func BenchmarkPaperHierPass(b *testing.B) {
	cfg := hierdrl.Hierarchical(30)
	cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(8000, 30, 1001)
	tr := hierdrl.SyntheticTraceForCluster(28000, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierdrl.Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQNetworkInference measures one global-tier decision: Q values for
// all M=30 actions through the autoencoder + Sub-Q architecture.
func BenchmarkQNetworkInference(b *testing.B) {
	cfg := global.DefaultConfig(30)
	enc, err := global.NewEncoder(30, cfg.K, cfg.DurationNormSec)
	if err != nil {
		b.Fatal(err)
	}
	rng := mat.NewRNG(1)
	net := global.NewQNetwork(enc, cfg, rng)
	v := benchView(30, rng)
	j := &cluster.Job{Duration: 600, Req: cluster.Resources{0.2, 0.1, 0.1}}
	s := enc.Encode(v, j)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.QValues(s)
	}
}

// BenchmarkQNetworkTrainBatch measures one DNN minibatch update (32
// transitions with SMDP targets already computed).
func BenchmarkQNetworkTrainBatch(b *testing.B) {
	cfg := global.DefaultConfig(30)
	enc, err := global.NewEncoder(30, cfg.K, cfg.DurationNormSec)
	if err != nil {
		b.Fatal(err)
	}
	rng := mat.NewRNG(1)
	net := global.NewQNetwork(enc, cfg, rng)
	opt := nn.NewAdam(1e-3)
	j := &cluster.Job{Duration: 600, Req: cluster.Resources{0.2, 0.1, 0.1}}
	batch := make([]global.TrainItem, 32)
	for i := range batch {
		batch[i] = global.TrainItem{
			S:      enc.Encode(benchView(30, rng), j),
			Action: rng.Intn(30),
			Target: rng.Normal(0, 1),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainBatch(batch, opt)
	}
}

// BenchmarkLSTMBPTT measures one paper-sized training sample: BPTT through a
// 35-step window with 30 hidden units.
func BenchmarkLSTMBPTT(b *testing.B) {
	rng := mat.NewRNG(1)
	net := lstm.NewNetwork(lstm.DefaultNetworkConfig(), rng)
	window := make([]float64, 35)
	for i := range window {
		window[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.BPTT(window, 0.5, 1)
	}
}

// BenchmarkLSTMBPTTCompact is BenchmarkLSTMBPTT at the scale presets'
// per-server predictor shape (lookback 16, hidden 8): the GEMV/rank-1 sizes
// scale-ll and scale-ll-p2 actually run, which a mat change must not slow.
func BenchmarkLSTMBPTTCompact(b *testing.B) {
	rng := mat.NewRNG(1)
	cfg := lstm.DefaultNetworkConfig()
	cfg.Hidden = 8
	net := lstm.NewNetwork(cfg, rng)
	window := make([]float64, 16)
	for i := range window {
		window[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.BPTT(window, 0.5, 1)
	}
}

// BenchmarkLSTMPredict measures one inference through the 35-step window.
func BenchmarkLSTMPredict(b *testing.B) {
	rng := mat.NewRNG(1)
	net := lstm.NewNetwork(lstm.DefaultNetworkConfig(), rng)
	window := make([]float64, 35)
	for i := range window {
		window[i] = rng.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(window)
	}
}

// BenchmarkMatMulVec measures the tiled GEMV kernel at the Sub-Q head's
// layer-1 shape (128x64 weight, single sample).
func BenchmarkMatMulVec(b *testing.B) {
	rng := mat.NewRNG(1)
	W := mat.NewDense(128, 64)
	rng.FillNormal(W, 0, 1)
	x := mat.NewVec(64)
	for i := range x {
		x[i] = rng.Normal(0, 1)
	}
	dst := mat.NewVec(128)
	b.SetBytes(int64(128 * 64 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		W.MulVec(x, dst)
	}
}

// BenchmarkMatMulMat measures the batched GEMM path at the target-network
// evaluation shape (96-row minibatch through the 128x64 layer), the way
// production runs it: against the layer's cached transpose.
func BenchmarkMatMulMat(b *testing.B) {
	rng := mat.NewRNG(1)
	X := mat.NewDense(96, 64)
	rng.FillNormal(X, 0, 1)
	W := mat.NewDense(128, 64)
	rng.FillNormal(W, 0, 1)
	WT := mat.NewDense(64, 128)
	mat.TransposeInto(W, WT)
	Y := mat.NewDense(96, 128)
	b.SetBytes(int64(96 * 64 * 128 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulMatTWithBT(X, W, WT, Y)
	}
}

// BenchmarkQNetInferBatch measures the batched target-network evaluation:
// max-Q for 32 states through all K heads in one forward.
func BenchmarkQNetInferBatch(b *testing.B) {
	cfg := global.DefaultConfig(30)
	enc, err := global.NewEncoder(30, cfg.K, cfg.DurationNormSec)
	if err != nil {
		b.Fatal(err)
	}
	rng := mat.NewRNG(1)
	net := global.NewQNetwork(enc, cfg, rng)
	j := &cluster.Job{Duration: 600, Req: cluster.Resources{0.2, 0.1, 0.1}}
	states := make([]global.State, 32)
	for i := range states {
		states[i] = enc.Encode(benchView(30, rng), j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.MaxQBatch(states)
	}
}

// BenchmarkEventLoop measures steady-state event throughput through the
// pooled, closure-free scheduling path: one self-rearming timer, zero
// allocations per event once the slot pool is warm.
func BenchmarkEventLoop(b *testing.B) {
	s := sim.New()
	var tick func(any)
	tick = func(a any) { s.ScheduleAfterArg(1, tick, a) }
	s.ScheduleArg(0, tick, s)
	for i := 0; i < 64; i++ {
		s.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSnapshot measures one per-arrival cluster observation: refreshing
// a reused View for an M=30 cluster.
func BenchmarkSnapshot(b *testing.B) {
	sm := sim.New()
	cl, err := cluster.New(cluster.DefaultConfig(30), sm, func(int) cluster.DPMPolicy {
		return benchAlwaysOn{}
	})
	if err != nil {
		b.Fatal(err)
	}
	var v cluster.View
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.SnapshotInto(&v)
	}
}

// benchAlwaysOn avoids importing internal/local just for the benchmark.
type benchAlwaysOn struct{}

func (benchAlwaysOn) OnIdle(sim.Time, *cluster.Server) float64                { return 1e18 }
func (benchAlwaysOn) OnArrival(sim.Time, *cluster.Server, cluster.PowerState) {}
func (benchAlwaysOn) Observe(sim.Time, float64, int)                          {}

// BenchmarkAllocateEpoch measures one full DRL decision epoch on a warm
// M=30 agent: state encode, transition close into the pooled replay, Q
// inference, epsilon-greedy selection, integrator reset — plus the amortized
// share of minibatch training (every TrainEvery-th epoch trains). Warm means
// the replay ring is full: while it fills, every epoch clones two states into
// a fresh slot (~10 allocs), so a shorter warm-up reports a mix of the two
// regimes that moves with b.N.
func BenchmarkAllocateEpoch(b *testing.B) {
	m := 30
	cfg := global.DefaultConfig(m)
	rng := mat.NewRNG(1)
	agent, err := global.NewAgent(cfg, m, rng)
	if err != nil {
		b.Fatal(err)
	}
	v := benchView(m, rng)
	j := &cluster.Job{Duration: 600, Req: cluster.Resources{0.2, 0.1, 0.1}}
	now := 0.0
	agent.ObserveCluster(0, 3000, 10, 1)
	epoch := func() {
		now += 5
		v.Now = sim.Time(now)
		agent.ObserveCluster(v.Now, 3000, 10, 1)
		agent.Allocate(j, v)
	}
	for i := 0; i < cfg.ReplayCap+2*cfg.TrainEvery; i++ {
		epoch()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
}

// BenchmarkRequeueLargePending measures retry-shaped re-insertion next to the
// head of a long pending queue — what a fault run with the whole trace
// batch-submitted does at every crash. The queue is held at 100k jobs on an
// always-on round-robin cluster; one op is one arrival landing 30-600 s past
// the clock (the backoff range), fifteen in-order arrivals at the tail and
// sixteen dispatches, about the 1:19 requeue-to-dispatch ratio of the
// repository benchmark's faults-batch workload. Insertion that walks the
// queue from its tail shows up here as hundreds of microseconds per op.
func BenchmarkRequeueLargePending(b *testing.B) {
	op := requeueRig(b, 100_000, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// requeueRig batch-submits pending jobs (plus a prefix it dispatches, so the
// queue has a consumed head as any run past its first minutes does) with room
// reserved for ops more operations, and returns BenchmarkRequeueLargePending's
// op — also what TestRequeueWarmPendingZeroAlloc counts allocations of.
func requeueRig(tb testing.TB, pending, ops int) (op func(i int)) {
	const slack, perOp = 2048, 16
	s, err := hierdrl.NewSession(hierdrl.RoundRobin(30))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	s.Reserve(pending + slack + perOp*ops)
	tr := hierdrl.SyntheticTraceForCluster(pending+slack, 30, 1)
	if err := s.SubmitTrace(tr); err != nil {
		tb.Fatal(err)
	}
	if err := s.StepUntil(hierdrl.Time(tr.Jobs[slack-1].Arrival)); err != nil {
		tb.Fatal(err)
	}
	tail := tr.Jobs[len(tr.Jobs)-1]
	gap := tail.Arrival / float64(len(tr.Jobs))
	return func(i int) {
		retry := tail
		retry.Arrival = float64(s.Now()) + 30 + float64(i%20)*30
		if err := s.Submit(retry); err != nil {
			tb.Fatal(err)
		}
		for k := 1; k < perOp; k++ {
			tail.Arrival += gap
			if err := s.Submit(tail); err != nil {
				tb.Fatal(err)
			}
		}
		for want := s.Pending() - perOp; s.Pending() > want; {
			if _, err := s.Step(); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulatorEvents measures raw event-queue throughput.
func BenchmarkSimulatorEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		var tick func()
		n := 0
		tick = func() {
			n++
			if n < 1000 {
				s.ScheduleAfter(1, tick)
			}
		}
		s.Schedule(0, tick)
		s.RunAll(2000)
	}
}

// BenchmarkClusterRoundRobin measures end-to-end simulation throughput
// without any learning in the loop (round-robin + always-on).
func BenchmarkClusterRoundRobin(b *testing.B) {
	tr := hierdrl.SyntheticTraceForCluster(2000, 30, 1)
	cfg := hierdrl.RoundRobin(30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hierdrl.Run(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func benchView(m int, rng *mat.RNG) *cluster.View {
	v := &cluster.View{
		M:        m,
		Util:     make([]cluster.Resources, m),
		Pending:  make([]cluster.Resources, m),
		QueueLen: make([]int, m),
		InSystem: make([]int, m),
		State:    make([]cluster.PowerState, m),
	}
	for i := 0; i < m; i++ {
		v.Util[i] = cluster.Resources{rng.Float64(), rng.Float64(), rng.Float64()}
		v.State[i] = cluster.StateActive
	}
	return v
}

// BenchmarkShardedEpoch measures the parallel tier's per-job overhead end to
// end at a deliberately small scale (M=64, P=2, least-loaded over the RL
// local tier): barrier release/join, lane stepping, merged log replay,
// load-index allocation, and dispatch. One op = one job pushed through a
// sharded session, so this row tracks the epoch machinery's cost across PRs
// independently of the repository benchmark's scale-ll-p2 workload.
func BenchmarkShardedEpoch(b *testing.B) {
	cfg := hierdrl.ScaleSim(64)
	src, err := hierdrl.ScaleStream(2000+b.N, 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Reserve(2000 + b.N)
	tr := &hierdrl.Trace{Jobs: make([]hierdrl.Job, 0, 2000+b.N)}
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	if err := s.SubmitTrace(tr); err != nil {
		b.Fatal(err)
	}
	// Warm every pool (event slots, job pool, logs, metric buffers) on the
	// first 2000 jobs, then measure live epochs.
	warmup := tr.Jobs[1999].Arrival
	if err := s.StepUntil(hierdrl.Time(warmup)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Drain(); err != nil {
		b.Fatal(err)
	}
}
