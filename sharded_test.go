package hierdrl_test

import (
	"math"
	"reflect"
	"testing"

	"hierdrl"
)

// The sharded parallel tier is gone (DESIGN.md §12). These tests keep their
// names and pin what replaced it: WithShards(p) is a deprecated no-op, and
// the one engine keeps the contracts the tier was measured against — run to
// run reproducibility, streamed == batch, observer ordering, late-arrival
// clamping, and a clean mid-run Close.

// sameBits reports whether two metrics are bitwise equal.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// shardTestSystems returns the compared systems at a reduced M=8 operating
// point.
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

// TestShardedMatchesStrict: on every compared system, including the full
// DRL hierarchy, a run with WithShards(p) for any p is the default run, bit
// for bit — the option is a no-op.
func TestShardedMatchesStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("DRL warmup passes are slow; run without -short")
	}
	cfgs, tr := shardTestSystems(t)
	for name, cfg := range cfgs {
		ref, err := hierdrl.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range []int{0, 2, 8, cfg.M + 4} {
			res, err := hierdrl.Run(cfg, tr, hierdrl.WithShards(p))
			if err != nil {
				t.Fatalf("%s WithShards(%d): %v", name, p, err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s WithShards(%d): %+v, default %+v", name, p, res.Summary, ref.Summary)
			}
		}
	}
}

// TestShardedReproducibleRunToRun asserts the determinism contract: the same
// configuration yields bitwise-identical metrics on repeated runs.
func TestShardedReproducibleRunToRun(t *testing.T) {
	m := 8
	cfg := hierdrl.Hierarchical(m)
	cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(100, m, 1007)
	tr := hierdrl.SyntheticTraceForCluster(300, m, 7)
	var ref *hierdrl.Result
	for run := 0; run < 3; run++ {
		res, err := hierdrl.Run(cfg, tr)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("run %d diverged: %+v vs %+v", run, res.Summary, ref.Summary)
		}
	}
}

// TestRunStreamedMatchesRun asserts the chunked streaming runner (RunSource)
// reproduces the batch Run exactly: same workload, same bits.
func TestRunStreamedMatchesRun(t *testing.T) {
	m := 8
	cfg := hierdrl.ScaleSim(m)
	tr := hierdrl.SyntheticTraceForCluster(2000, m, 3)
	batch, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	src, err := hierdrl.ScaleStream(2000, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hierdrl.RunSource(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(res.Summary.EnergykWh, batch.Summary.EnergykWh) ||
		!sameBits(res.Summary.AccLatencySec, batch.Summary.AccLatencySec) {
		t.Errorf("energy %v accLat %v vs batch %v %v",
			res.Summary.EnergykWh, res.Summary.AccLatencySec,
			batch.Summary.EnergykWh, batch.Summary.AccLatencySec)
	}
}

// TestShardedObserverHammer drives a session with every Observer hook
// active, interleaving bounded clock advances with mid-run snapshots through
// the reused buffer, and asserts the callbacks arrive in time order with the
// expected counts and leave the result bitwise equal to an unobserved Run.
func TestShardedObserverHammer(t *testing.T) {
	m := 16
	tr := hierdrl.SyntheticTraceForCluster(1500, m, 11)
	cfg := hierdrl.ScaleSim(m)
	cfg.CheckpointEvery = 100

	var done, trans, checkpoints int
	var snap hierdrl.SessionSnapshot
	var lastDone hierdrl.Time
	obs := hierdrl.Observer{
		OnJobDone: func(tm hierdrl.Time, j *hierdrl.ClusterJob) {
			done++
			if tm < lastDone {
				t.Errorf("completions not time-ordered: %v after %v", tm, lastDone)
			}
			lastDone = tm
		},
		OnModeTransition: func(tm hierdrl.Time, server int, from, to hierdrl.PowerState) { trans++ },
		OnCheckpoint:     func(cp hierdrl.Checkpoint) { checkpoints++ },
	}
	s, err := hierdrl.NewSession(cfg, hierdrl.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	span := tr.Jobs[len(tr.Jobs)-1].Arrival
	for i := 1; i <= 10; i++ {
		if err := s.StepUntil(hierdrl.Time(span * float64(i) / 10)); err != nil {
			t.Fatal(err)
		}
		s.SnapshotInto(&snap)
		if snap.View.M != m {
			t.Fatalf("snapshot M=%d", snap.View.M)
		}
	}
	res := drainResult(t, s)
	if done != len(tr.Jobs) || checkpoints != len(tr.Jobs)/100 || trans == 0 {
		t.Fatalf("observer counts: %d done, %d checkpoints, %d transitions", done, checkpoints, trans)
	}
	ref, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("observed run %+v, unobserved %+v", res.Summary, ref.Summary)
	}
}

// TestWithShardsValidation: WithShards is accepted for every p — even one
// larger than the cluster, which the removed tier rejected — and the session
// it builds runs bitwise like the default one.
func TestWithShardsValidation(t *testing.T) {
	cfg := hierdrl.RoundRobin(4)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	tr := hierdrl.SyntheticTraceForCluster(300, cfg.M, 2)
	ref, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{-1, 0, 2, 8, cfg.M + 4} {
		res, err := hierdrl.Run(cfg, tr, hierdrl.WithShards(p))
		if err != nil {
			t.Fatalf("WithShards(%d): %v", p, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("WithShards(%d): %+v, default %+v", p, res.Summary, ref.Summary)
		}
	}
}

// TestShardedLateSubmit pins the pump's late-arrival clamping: a job
// submitted with an arrival already in the past is dispatched at the current
// clock, and its latency still counts from the declared arrival.
func TestShardedLateSubmit(t *testing.T) {
	m := 8
	lateID := -1
	var started, latency float64
	obs := hierdrl.Observer{OnJobDone: func(_ hierdrl.Time, j *hierdrl.ClusterJob) {
		if j.ID == lateID {
			st, _ := j.StartedAt()
			started, latency = float64(st), j.Latency()
		}
	}}
	s, err := hierdrl.NewSession(hierdrl.ScaleSim(m), hierdrl.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := hierdrl.SyntheticTraceForCluster(200, m, 5)
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	clock := tr.Jobs[len(tr.Jobs)-1].Arrival + 100
	if err := s.StepUntil(hierdrl.Time(clock)); err != nil {
		t.Fatal(err)
	}
	// Arrival far in the past: dispatched at the current clock.
	late := tr.Jobs[0]
	late.Arrival = 1
	lateID = len(tr.Jobs)
	if err := s.Submit(late); err != nil {
		t.Fatal(err)
	}
	res := drainResult(t, s)
	if res.Summary.Jobs != len(tr.Jobs)+1 {
		t.Fatalf("%d jobs completed, want %d", res.Summary.Jobs, len(tr.Jobs)+1)
	}
	if started < clock {
		t.Errorf("late job started at %v, before the clock %v it was submitted at", started, clock)
	}
	if latency < clock-1 {
		t.Errorf("late job latency %v does not count from its declared arrival", latency)
	}
}

// TestShardedCloseMidRun: closing a DRL session between Steps finishes the
// agent's episode at the current clock — the path a failed Restore takes to
// discard its half-built session — without running its reward integrator
// backwards.
func TestShardedCloseMidRun(t *testing.T) {
	cfgs, tr := shardTestSystems(t)
	s, err := hierdrl.NewSession(cfgs["drl-only"])
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
