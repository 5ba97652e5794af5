package hierdrl_test

import (
	"math"
	"sync/atomic"
	"testing"

	"hierdrl"
)

// sameBits reports whether two metrics are bitwise equal — the strict ==
// sharded contract these tests assert. (On a workload where two shards fire
// an observable event at the same instant the tiers may order the tie
// differently; the continuous arrival processes used here never produce one.)
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// shardTestSystems returns the three compared systems at a reduced M=8
// operating point (P=8 needs at least 8 servers).
func shardTestSystems(t *testing.T) (map[string]hierdrl.Config, *hierdrl.Trace) {
	t.Helper()
	m := 8
	warm := hierdrl.SyntheticTraceForCluster(150, m, 1007)
	tr := hierdrl.SyntheticTraceForCluster(500, m, 7)
	cfgs := map[string]hierdrl.Config{}

	rr := hierdrl.RoundRobin(m)
	cfgs["round-robin"] = rr

	drl := hierdrl.DRLOnly(m)
	drl.WarmupTrace = warm
	cfgs["drl-only"] = drl

	hier := hierdrl.Hierarchical(m)
	hier.WarmupTrace = warm
	cfgs["hierarchical"] = hier

	ll := hierdrl.RoundRobin(m)
	ll.Name = "least-loaded"
	ll.Alloc = hierdrl.AllocLeastLoaded
	cfgs["least-loaded"] = ll
	return cfgs, tr
}

// TestShardedMatchesStrict runs the compared systems strict (P=1) and
// sharded (P in {2,4,8}) on the same workload and asserts the parallel
// tier's results equal the strict tier's bit for bit — including the full
// DRL hierarchy, whose reward integral flows through the merged change feed.
func TestShardedMatchesStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("DRL warmup passes are slow; run without -short")
	}
	cfgs, tr := shardTestSystems(t)
	for name, cfg := range cfgs {
		strict, err := hierdrl.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s strict: %v", name, err)
		}
		for _, p := range []int{2, 4, 8} {
			res, err := hierdrl.Run(cfg, tr, hierdrl.WithShards(p))
			if err != nil {
				t.Fatalf("%s P=%d: %v", name, p, err)
			}
			if res.Summary.Jobs != strict.Summary.Jobs {
				t.Errorf("%s P=%d: %d jobs vs strict %d", name, p, res.Summary.Jobs, strict.Summary.Jobs)
			}
			pairs := map[string][2]float64{
				"energy":   {res.Summary.EnergykWh, strict.Summary.EnergykWh},
				"accLat":   {res.Summary.AccLatencySec, strict.Summary.AccLatencySec},
				"avgPower": {res.Summary.AvgPowerW, strict.Summary.AvgPowerW},
				"duration": {res.Summary.DurationSec, strict.Summary.DurationSec},
			}
			for metric, v := range pairs {
				if !sameBits(v[0], v[1]) {
					t.Errorf("%s P=%d: %s %v vs strict %v", name, p, metric, v[0], v[1])
				}
			}
			if res.TotalWakeups != strict.TotalWakeups || res.TotalShutdowns != strict.TotalShutdowns {
				t.Errorf("%s P=%d: transitions %d/%d vs strict %d/%d", name, p,
					res.TotalWakeups, res.TotalShutdowns, strict.TotalWakeups, strict.TotalShutdowns)
			}
		}
	}
}

// TestShardedReproducibleRunToRun asserts the parallel tier's determinism
// contract: the same configuration at the same P yields bitwise-identical
// metrics on repeated runs (goroutine scheduling must never leak into
// results).
func TestShardedReproducibleRunToRun(t *testing.T) {
	m := 8
	cfg := hierdrl.Hierarchical(m)
	cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(100, m, 1007)
	tr := hierdrl.SyntheticTraceForCluster(300, m, 7)
	var ref *hierdrl.Result
	for run := 0; run < 3; run++ {
		res, err := hierdrl.Run(cfg, tr, hierdrl.WithShards(4))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if math.Float64bits(res.Summary.EnergykWh) != math.Float64bits(ref.Summary.EnergykWh) ||
			math.Float64bits(res.Summary.AccLatencySec) != math.Float64bits(ref.Summary.AccLatencySec) {
			t.Fatalf("run %d diverged: energy %x vs %x, accLat %x vs %x", run,
				math.Float64bits(res.Summary.EnergykWh), math.Float64bits(ref.Summary.EnergykWh),
				math.Float64bits(res.Summary.AccLatencySec), math.Float64bits(ref.Summary.AccLatencySec))
		}
	}
}

// TestRunStreamedMatchesRun asserts the chunked streaming runner (RunSource)
// reproduces the batch Run exactly, in both tiers: same workload, same bits.
func TestRunStreamedMatchesRun(t *testing.T) {
	m := 8
	cfg := hierdrl.ScaleSim(m)
	tr := hierdrl.SyntheticTraceForCluster(2000, m, 3)
	batch, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		src, err := hierdrl.ScaleStream(2000, m, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hierdrl.RunSource(cfg, src, hierdrl.WithShards(p))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if !sameBits(res.Summary.EnergykWh, batch.Summary.EnergykWh) ||
			!sameBits(res.Summary.AccLatencySec, batch.Summary.AccLatencySec) {
			t.Errorf("P=%d: energy %v accLat %v vs batch %v %v", p,
				res.Summary.EnergykWh, res.Summary.AccLatencySec,
				batch.Summary.EnergykWh, batch.Summary.AccLatencySec)
		}
	}
}

// TestShardedObserverHammer drives a sharded session with every Observer
// hook active — each one taking a mid-run snapshot through the reused
// buffer — and asserts the callback streams match the strict tier's. Under
// `go test -race` this doubles as the concurrency soak for the logging/
// replay machinery: P lanes step concurrently while the observer reads
// cluster state at every barrier.
func TestShardedObserverHammer(t *testing.T) {
	m := 16
	tr := hierdrl.SyntheticTraceForCluster(1500, m, 11)
	cfg := hierdrl.ScaleSim(m)
	cfg.CheckpointEvery = 100

	type counts struct {
		done, trans, checkpoints int64
	}
	runWith := func(p int) (counts, *hierdrl.Result) {
		var c counts
		var snap hierdrl.SessionSnapshot
		var lastDone hierdrl.Time
		obs := hierdrl.Observer{
			OnJobDone: func(tm hierdrl.Time, j *hierdrl.ClusterJob) {
				atomic.AddInt64(&c.done, 1)
				if tm < lastDone {
					t.Errorf("P=%d: completion replay not time-ordered: %v after %v", p, tm, lastDone)
				}
				lastDone = tm
			},
			OnModeTransition: func(tm hierdrl.Time, server int, from, to hierdrl.PowerState) {
				atomic.AddInt64(&c.trans, 1)
			},
			OnCheckpoint: func(cp hierdrl.Checkpoint) { atomic.AddInt64(&c.checkpoints, 1) },
		}
		s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(p), hierdrl.WithObserver(obs))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		defer s.Close()
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		// Interleave stepping with mid-run snapshots through the reused view.
		span := tr.Jobs[len(tr.Jobs)-1].Arrival
		for i := 1; i <= 10; i++ {
			if err := s.StepUntil(hierdrl.Time(span * float64(i) / 10)); err != nil {
				t.Fatalf("P=%d: %v", p, err)
			}
			s.SnapshotInto(&snap)
			if snap.View.M != m {
				t.Fatalf("P=%d: snapshot M=%d", p, snap.View.M)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		return c, res
	}

	strictCounts, strictRes := runWith(1)
	if strictCounts.done != int64(len(tr.Jobs)) {
		t.Fatalf("strict saw %d completions, want %d", strictCounts.done, len(tr.Jobs))
	}
	for _, p := range []int{2, 4} {
		c, res := runWith(p)
		if c != strictCounts {
			t.Errorf("P=%d: observer counts %+v vs strict %+v", p, c, strictCounts)
		}
		if !sameBits(res.Summary.EnergykWh, strictRes.Summary.EnergykWh) {
			t.Errorf("P=%d: energy %v vs strict %v", p, res.Summary.EnergykWh, strictRes.Summary.EnergykWh)
		}
		if len(res.Checkpoints) != len(strictRes.Checkpoints) {
			t.Errorf("P=%d: %d checkpoints vs strict %d", p, len(res.Checkpoints), len(strictRes.Checkpoints))
		}
	}
}

// TestWithShardsValidation asserts the option's error surface.
func TestWithShardsValidation(t *testing.T) {
	cfg := hierdrl.RoundRobin(4)
	if _, err := hierdrl.NewSession(cfg, hierdrl.WithShards(8)); err == nil {
		t.Fatal("NewSession with more shards than servers did not fail")
	}
	s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(0))
	if err != nil {
		t.Fatalf("WithShards(0) should mean the strict default: %v", err)
	}
	s.Close()
}

// TestShardedLateSubmit mirrors the strict pump's late-arrival clamping: a
// job submitted with an arrival already in the past is dispatched at the
// current clock, in both tiers, with identical results.
func TestShardedLateSubmit(t *testing.T) {
	m := 8
	run := func(p int) hierdrl.Summary {
		cfg := hierdrl.ScaleSim(m)
		s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(p))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tr := hierdrl.SyntheticTraceForCluster(200, m, 5)
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatal(err)
		}
		if err := s.StepUntil(hierdrl.Time(tr.Jobs[len(tr.Jobs)-1].Arrival + 100)); err != nil {
			t.Fatal(err)
		}
		// Arrival far in the past: dispatched at the current clock.
		late := tr.Jobs[0]
		late.Arrival = 1
		if err := s.Submit(late); err != nil {
			t.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary
	}
	strict := run(1)
	for _, p := range []int{2, 4} {
		got := run(p)
		if !sameBits(got.EnergykWh, strict.EnergykWh) || !sameBits(got.AccLatencySec, strict.AccLatencySec) {
			t.Errorf("P=%d: energy %v accLat %v vs strict %v %v", p,
				got.EnergykWh, got.AccLatencySec, strict.EnergykWh, strict.AccLatencySec)
		}
	}
}

// TestShardedCloseMidRun: the parallel tier's clock trails the decision
// instant of its uncommitted dispatch, so closing a DRL session between Steps
// used to run the agent's reward integrator backwards and panic — which is
// also the path a failed Restore takes to discard its half-built session.
func TestShardedCloseMidRun(t *testing.T) {
	cfgs, tr := shardTestSystems(t)
	s, err := hierdrl.NewSession(cfgs["drl-only"], hierdrl.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	stepToCompleted(t, s, int64(len(tr.Jobs)/2))
	if err := s.Close(); err != nil {
		t.Fatalf("close mid-run: %v", err)
	}
}
