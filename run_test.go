package hierdrl

import (
	"bytes"
	"math"
	"testing"
)

// smallTrace returns a reduced workload that keeps integration tests fast
// while preserving the calibrated arrival/duration/demand marginals, with
// the arrival rate matched to an m-server cluster.
func smallTrace(n, m int, seed int64) *Trace { return SyntheticTraceForCluster(n, m, seed) }

func runOrFatal(t *testing.T, cfg Config, tr *Trace) *Result {
	t.Helper()
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatalf("Run(%s): %v", cfg.Name, err)
	}
	return res
}

func TestRunRoundRobinCompletes(t *testing.T) {
	tr := smallTrace(800, 6, 42)
	res := runOrFatal(t, RoundRobin(6), tr)
	if res.Summary.Jobs != 800 {
		t.Fatalf("jobs %d want 800", res.Summary.Jobs)
	}
	if res.Summary.EnergykWh <= 0 || res.Summary.AvgPowerW <= 0 {
		t.Fatalf("energy/power: %+v", res.Summary)
	}
	// Round-robin keeps everything on: no transitions at all.
	if res.Summary.Shutdowns != 0 {
		t.Fatalf("round-robin had %d shutdowns", res.Summary.Shutdowns)
	}
	// With always-on DPM, servers start asleep, wake on their first job,
	// and never sleep again: at most one wakeup per server.
	if res.Summary.Wakeups == 0 || res.Summary.Wakeups > int64(6) {
		t.Fatalf("wakeups %d want in [1,6]", res.Summary.Wakeups)
	}
}

func TestRunChecksConfig(t *testing.T) {
	tr := smallTrace(10, 4, 1)
	cases := []Config{
		{M: 0, Alloc: AllocRoundRobin, DPM: DPMAlwaysOn},
		{M: 4, Alloc: "bogus", DPM: DPMAlwaysOn},
		{M: 4, Alloc: AllocRoundRobin, DPM: "bogus"},
		{M: 4, Alloc: AllocRoundRobin, DPM: DPMFixedTimeout, FixedTimeoutSec: -1},
		nanTonConfig(4),
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, tr); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	if _, err := Run(RoundRobin(4), &Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// nanTonConfig is a fixed-timeout run whose explicit cluster has a NaN
// wake-up time: it must fail validation, not panic scheduling at NaN.
func nanTonConfig(m int) Config {
	cfg := FixedTimeoutBaseline(m, 60)
	cfg.Seed = 1
	cfg.Cluster = DefaultClusterConfig(m)
	cfg.Cluster.Server.TonSeconds = math.NaN()
	return cfg
}

func TestRunDeterminism(t *testing.T) {
	tr := smallTrace(400, 4, 7)
	cfg := RoundRobin(4)
	a := runOrFatal(t, cfg, tr)
	b := runOrFatal(t, cfg, tr)
	if a.Summary.EnergykWh != b.Summary.EnergykWh ||
		a.Summary.AccLatencySec != b.Summary.AccLatencySec {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a.Summary, b.Summary)
	}
}

func TestRunCheckpoints(t *testing.T) {
	tr := smallTrace(500, 4, 3)
	cfg := RoundRobin(4)
	cfg.CheckpointEvery = 100
	res := runOrFatal(t, cfg, tr)
	if len(res.Checkpoints) != 5 {
		t.Fatalf("checkpoints %d want 5", len(res.Checkpoints))
	}
	for i := 1; i < len(res.Checkpoints); i++ {
		if res.Checkpoints[i].EnergykWh < res.Checkpoints[i-1].EnergykWh {
			t.Fatal("energy series not monotone")
		}
		if res.Checkpoints[i].AccLatencySec < res.Checkpoints[i-1].AccLatencySec {
			t.Fatal("latency series not monotone")
		}
	}
}

func TestRunFixedTimeoutSavesEnergyVsAlwaysOn(t *testing.T) {
	tr := smallTrace(600, 6, 11)
	m := 6
	alwaysOn := RoundRobin(m)
	fixed := RoundRobin(m)
	fixed.Name = "rr+timeout"
	fixed.DPM = DPMFixedTimeout
	fixed.FixedTimeoutSec = 60

	a := runOrFatal(t, alwaysOn, tr)
	b := runOrFatal(t, fixed, tr)
	if b.Summary.EnergykWh >= a.Summary.EnergykWh {
		t.Fatalf("fixed timeout did not save energy: %v vs %v kWh",
			b.Summary.EnergykWh, a.Summary.EnergykWh)
	}
	if b.Summary.Shutdowns == 0 {
		t.Fatal("fixed timeout never slept")
	}
}

func TestRunDRLOnlySmoke(t *testing.T) {
	tr := smallTrace(600, 6, 5)
	cfg := DRLOnly(6)
	// Shrink the networks for test speed.
	cfg.Global.AEHidden = []int{10, 5}
	cfg.Global.SubQHidden = 24
	cfg.Global.TrainEvery = 32
	cfg.WarmupTrace = smallTrace(300, 6, 6)
	res := runOrFatal(t, cfg, tr)
	if res.Summary.Jobs != 600 {
		t.Fatalf("jobs %d want 600", res.Summary.Jobs)
	}
	if res.AgentDiag == "" {
		t.Fatal("missing agent diagnostics")
	}
	// The DRL-only system must actually use sleep (ad-hoc DPM).
	if res.Summary.Shutdowns == 0 {
		t.Fatal("ad-hoc DPM never slept")
	}
}

func TestRunHierarchicalSmoke(t *testing.T) {
	tr := smallTrace(600, 6, 9)
	cfg := Hierarchical(6)
	cfg.Global.AEHidden = []int{10, 5}
	cfg.Global.SubQHidden = 24
	cfg.Global.TrainEvery = 32
	// EWMA predictor keeps this test fast; the LSTM path is covered by
	// TestRunHierarchicalWithLSTM below and the lstm package tests.
	cfg.Predictor = PredictorEWMA
	res := runOrFatal(t, cfg, tr)
	if res.Summary.Jobs != 600 {
		t.Fatalf("jobs %d want 600", res.Summary.Jobs)
	}
}

func TestRunHierarchicalWithLSTM(t *testing.T) {
	if testing.Short() {
		t.Skip("LSTM online training is slow; run without -short")
	}
	tr := smallTrace(500, 4, 13)
	cfg := Hierarchical(4)
	cfg.Global.AEHidden = []int{10, 5}
	cfg.Global.SubQHidden = 24
	cfg.LSTMPredictor.Lookback = 12
	cfg.LSTMPredictor.Network.Hidden = 10
	res := runOrFatal(t, cfg, tr)
	if res.Summary.Jobs != 500 {
		t.Fatalf("jobs %d want 500", res.Summary.Jobs)
	}
}

// The headline qualitative claim at reduced scale: the hierarchical system
// uses less energy than round-robin, and round-robin has the lowest latency.
func TestRunPolicyOrderingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-system comparison is slow; run without -short")
	}
	m := 6
	tr := smallTrace(2500, m, 21)
	warm := smallTrace(1000, m, 22)

	rr := runOrFatal(t, RoundRobin(m), tr)

	drl := DRLOnly(m)
	drl.Global.AEHidden = []int{10, 5}
	drl.Global.SubQHidden = 32
	drl.WarmupTrace = warm
	do := runOrFatal(t, drl, tr)

	hier := Hierarchical(m)
	hier.Global.AEHidden = []int{10, 5}
	hier.Global.SubQHidden = 32
	hier.WarmupTrace = warm
	hier.Predictor = PredictorEWMA
	hi := runOrFatal(t, hier, tr)

	// Energy: both DRL systems must beat round-robin decisively.
	if do.Summary.EnergykWh >= rr.Summary.EnergykWh {
		t.Errorf("DRL-only energy %v >= round-robin %v",
			do.Summary.EnergykWh, rr.Summary.EnergykWh)
	}
	if hi.Summary.EnergykWh >= rr.Summary.EnergykWh {
		t.Errorf("hierarchical energy %v >= round-robin %v",
			hi.Summary.EnergykWh, rr.Summary.EnergykWh)
	}
	// Latency: round-robin is the floor.
	if rr.Summary.AvgLatencySec > do.Summary.AvgLatencySec ||
		rr.Summary.AvgLatencySec > hi.Summary.AvgLatencySec {
		t.Errorf("round-robin latency %v not the lowest (drl %v, hier %v)",
			rr.Summary.AvgLatencySec, do.Summary.AvgLatencySec, hi.Summary.AvgLatencySec)
	}
	t.Logf("RR:   %s", rr.Summary)
	t.Logf("DRL:  %s", do.Summary)
	t.Logf("HIER: %s", hi.Summary)
}

func TestTraceCSVRoundTripThroughPublicAPI(t *testing.T) {
	tr := smallTrace(50, 4, 2)
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, tr); err != nil {
		t.Fatalf("WriteTraceCSV: %v", err)
	}
	back, err := ReadTraceCSV(&buf)
	if err != nil {
		t.Fatalf("ReadTraceCSV: %v", err)
	}
	if back.Len() != 50 {
		t.Fatalf("round trip length %d", back.Len())
	}
}

func TestTradeoffConversion(t *testing.T) {
	res := &Result{Summary: Summary{AvgLatencySec: 10, AvgEnergyJPerJob: 20}}
	p := res.Tradeoff("x", 0.5)
	if p.Label != "x" || p.Weight != 0.5 || p.AvgLatencySec != 10 || p.AvgEnergyJPerJob != 20 {
		t.Fatalf("tradeoff point %+v", p)
	}
}

func TestSyntheticTraceStats(t *testing.T) {
	tr := SyntheticTrace(1000, 5)
	stats := TraceStatsOf(tr)
	if tr.Len() != 1000 || stats.Jobs != 1000 {
		t.Fatal("generation length mismatch")
	}
	if math.IsNaN(stats.MeanDuration) || stats.MeanDuration <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestDiscountRateCalibration pins both tiers' default discount rates, where
// the paper quotes 0.5/s: 0.05/s for the global tier, 0.01/s for the local
// tier (DESIGN.md §2).
func TestDiscountRateCalibration(t *testing.T) {
	cfg := Hierarchical(30)
	if cfg.Global.Beta != 0.05 || cfg.LocalRL.Beta != 0.01 {
		t.Fatalf("global beta %v, local beta %v; want 0.05 and 0.01", cfg.Global.Beta, cfg.LocalRL.Beta)
	}
}
