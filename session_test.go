package hierdrl_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"hierdrl"
	"hierdrl/internal/cluster"
)

// sessionScale mirrors the golden fingerprint's reduced operating point.
const (
	sessM       = 6
	sessJobs    = 500
	sessWarmups = 200
)

// sessionPresets builds the three evaluation systems on one workload and one
// warmup trace, as a Study cell at Scale{sessJobs, sessWarmups, sessM} runs
// them at seed 1.
func sessionPresets(t *testing.T) (tr, warm *hierdrl.Trace, cfgs []hierdrl.Config) {
	t.Helper()
	tr = hierdrl.SyntheticTraceForCluster(sessJobs, sessM, 1)
	warm = hierdrl.SyntheticTraceForCluster(sessWarmups, sessM, 1001)

	rr := hierdrl.RoundRobin(sessM)
	drl := hierdrl.DRLOnly(sessM)
	drl.WarmupTrace = warm
	hier := hierdrl.Hierarchical(sessM)
	hier.WarmupTrace = warm
	cfgs = []hierdrl.Config{rr, drl, hier}
	for i := range cfgs {
		cfgs[i].CheckpointEvery = 100
	}
	return tr, warm, cfgs
}

func summaryBits(s hierdrl.Summary) [8]uint64 {
	return [8]uint64{
		math.Float64bits(s.EnergykWh),
		math.Float64bits(s.AccLatencySec),
		math.Float64bits(s.AvgPowerW),
		math.Float64bits(s.AvgLatencySec),
		math.Float64bits(s.AvgEnergyJPerJob),
		math.Float64bits(s.P95LatencySec),
		math.Float64bits(s.MeanWaitSec),
		math.Float64bits(s.DurationSec),
	}
}

// TestSessionMatchesRunBitwise is the api_redesign acceptance test: driving
// a Session by hand — per-job Submit with interleaved StepUntil clock
// advances — reproduces Run's measurements bit for bit on all three presets.
func TestSessionMatchesRunBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("three-system comparison is slow; run without -short")
	}
	tr, _, cfgs := sessionPresets(t)
	for _, cfg := range cfgs {
		batch, err := hierdrl.Run(cfg, tr)
		if err != nil {
			t.Fatalf("%s: Run: %v", cfg.Name, err)
		}

		s, err := hierdrl.NewSession(cfg)
		if err != nil {
			t.Fatalf("%s: NewSession: %v", cfg.Name, err)
		}
		for i, j := range tr.Jobs {
			if err := s.Submit(j); err != nil {
				t.Fatalf("%s: Submit %d: %v", cfg.Name, i, err)
			}
			// Interleave clock advances with ingestion: true streaming, not
			// a submit-everything-then-run replay.
			if i%64 == 63 {
				if err := s.StepUntil(hierdrl.Time(j.Arrival)); err != nil {
					t.Fatalf("%s: StepUntil: %v", cfg.Name, err)
				}
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("%s: Drain: %v", cfg.Name, err)
		}
		stream, err := s.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", cfg.Name, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", cfg.Name, err)
		}

		if got, want := summaryBits(stream.Summary), summaryBits(batch.Summary); got != want {
			t.Errorf("%s: streamed summary diverged:\n got %v\nwant %v", cfg.Name, got, want)
		}
		if stream.Summary.Wakeups != batch.Summary.Wakeups || stream.Summary.Shutdowns != batch.Summary.Shutdowns {
			t.Errorf("%s: transitions %d/%d want %d/%d", cfg.Name,
				stream.Summary.Wakeups, stream.Summary.Shutdowns, batch.Summary.Wakeups, batch.Summary.Shutdowns)
		}
		if len(stream.Checkpoints) != len(batch.Checkpoints) {
			t.Fatalf("%s: checkpoint count %d want %d", cfg.Name,
				len(stream.Checkpoints), len(batch.Checkpoints))
		}
		for i := range stream.Checkpoints {
			a, b := stream.Checkpoints[i], batch.Checkpoints[i]
			if a != b {
				t.Errorf("%s: checkpoint %d = %+v want %+v", cfg.Name, i, a, b)
			}
		}
		if stream.AgentDiag != batch.AgentDiag {
			t.Errorf("%s: agent diag %q want %q", cfg.Name, stream.AgentDiag, batch.AgentDiag)
		}
	}
}

// TestSessionObserverHooks checks every Observer callback fires, with counts
// that reconcile against the final Result.
func TestSessionObserverHooks(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(300, 2, 5)
	cfg := hierdrl.RoundRobin(2)
	cfg.DPM = hierdrl.DPMFixedTimeout
	cfg.FixedTimeoutSec = 30
	cfg.CheckpointEvery = 50

	var jobs, checkpoints, wakes, sleeps int
	var lastDone hierdrl.Time
	obs := hierdrl.Observer{
		OnJobDone: func(ts hierdrl.Time, j *hierdrl.ClusterJob) {
			jobs++
			if ts < lastDone {
				t.Errorf("job completions out of order: %v after %v", ts, lastDone)
			}
			lastDone = ts
			if _, ok := j.FinishedAt(); !ok {
				t.Error("OnJobDone with unfinished job")
			}
		},
		OnCheckpoint: func(cp hierdrl.Checkpoint) { checkpoints++ },
		OnModeTransition: func(ts hierdrl.Time, server int, from, to hierdrl.PowerState) {
			if server < 0 || server >= 2 {
				t.Errorf("transition on invalid server %d", server)
			}
			switch {
			case from == hierdrl.StateSleep && to == hierdrl.StateWaking:
				wakes++
			case from == hierdrl.StateActive && to == hierdrl.StateShuttingDown:
				sleeps++
			}
		},
	}
	s, err := hierdrl.NewSession(cfg, hierdrl.WithObserver(obs))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatalf("SubmitTrace: %v", err)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if jobs != tr.Len() {
		t.Errorf("OnJobDone fired %d times want %d", jobs, tr.Len())
	}
	if checkpoints != len(res.Checkpoints) || checkpoints == 0 {
		t.Errorf("OnCheckpoint fired %d times want %d (>0)", checkpoints, len(res.Checkpoints))
	}
	if int64(wakes) != res.Summary.Wakeups {
		t.Errorf("observed %d wakeups, result says %d", wakes, res.Summary.Wakeups)
	}
	if int64(sleeps) != res.Summary.Shutdowns {
		t.Errorf("observed %d shutdowns, result says %d", sleeps, res.Summary.Shutdowns)
	}
	if res.Summary.Shutdowns == 0 {
		t.Error("fixed-timeout run never slept; transition hook untested")
	}
}

// TestSessionSnapshotLive checks mid-run visibility: counts move, energy
// accumulates, and the view reflects the cluster size.
func TestSessionSnapshotLive(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(400, 4, 9)
	s, err := hierdrl.NewSession(hierdrl.RoundRobin(4))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatalf("SubmitTrace: %v", err)
	}
	mid := hierdrl.Time(tr.Jobs[tr.Len()/2].Arrival)
	if err := s.StepUntil(mid); err != nil {
		t.Fatalf("StepUntil: %v", err)
	}
	snap := s.Snapshot()
	if snap.Now != mid {
		t.Errorf("snapshot clock %v want %v", snap.Now, mid)
	}
	if snap.Ingested != int64(tr.Len()) {
		t.Errorf("ingested %d want %d", snap.Ingested, tr.Len())
	}
	if snap.Completed == 0 || snap.Completed >= int64(tr.Len()) {
		t.Errorf("mid-run completed %d want in (0, %d)", snap.Completed, tr.Len())
	}
	if snap.PendingArrivals == 0 {
		t.Error("mid-run pending arrivals should be > 0")
	}
	if snap.EnergykWh <= 0 || snap.TotalPowerW <= 0 {
		t.Errorf("snapshot energy/power: %+v", snap)
	}
	if snap.View == nil || snap.View.M != 4 {
		t.Fatalf("snapshot view: %+v", snap.View)
	}

	// Result before completion is an error and must not poison the session.
	if _, err := s.Result(); err == nil {
		t.Fatal("mid-run Result succeeded")
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	final := s.Snapshot()
	if final.Completed != int64(tr.Len()) || final.PendingArrivals != 0 {
		t.Errorf("final snapshot: %+v", final)
	}
	if final.EnergykWh < snap.EnergykWh {
		t.Error("energy went backwards")
	}
	if _, err := s.Result(); err != nil {
		t.Fatalf("final Result: %v", err)
	}
}

// TestSessionContextCancel checks cooperative cancellation through the
// session's context.
func TestSessionContextCancel(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(200, 2, 3)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := hierdrl.NewSession(hierdrl.RoundRobin(2), hierdrl.WithContext(ctx))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatalf("SubmitTrace: %v", err)
	}
	cancel()
	if err := s.Drain(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain after cancel = %v, want context.Canceled", err)
	}
	if err := s.StepUntil(1e9); !errors.Is(err, context.Canceled) {
		t.Fatalf("StepUntil after cancel = %v, want context.Canceled", err)
	}
	if _, err := s.Step(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step after cancel = %v, want context.Canceled", err)
	}
}

// TestSessionClosed checks every entry point rejects a closed session.
func TestSessionClosed(t *testing.T) {
	s, err := hierdrl.NewSession(hierdrl.RoundRobin(2))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Submit(hierdrl.Job{Arrival: 1, Duration: 10, Req: [3]float64{0.1, 0.1, 0.1}}); !errors.Is(err, hierdrl.ErrSessionClosed) {
		t.Errorf("Submit = %v", err)
	}
	if err := s.SubmitTrace(hierdrl.SyntheticTrace(5, 1)); !errors.Is(err, hierdrl.ErrSessionClosed) {
		t.Errorf("SubmitTrace = %v", err)
	}
	if err := s.Drain(); !errors.Is(err, hierdrl.ErrSessionClosed) {
		t.Errorf("Drain = %v", err)
	}
	if _, err := s.Result(); !errors.Is(err, hierdrl.ErrSessionClosed) {
		t.Errorf("Result = %v", err)
	}
}

// TestSessionSubmitValidates checks per-job validation at the streaming
// surface and out-of-order ingestion.
func TestSessionSubmitValidates(t *testing.T) {
	s, err := hierdrl.NewSession(hierdrl.RoundRobin(2))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	bad := []hierdrl.Job{
		{Arrival: -1, Duration: 10, Req: [3]float64{0.1, 0.1, 0.1}},
		{Arrival: 1, Duration: 0, Req: [3]float64{0.1, 0.1, 0.1}},
		{Arrival: 1, Duration: 10, Req: [3]float64{1.5, 0.1, 0.1}},
		{Arrival: 1, Duration: 10, Req: [3]float64{0.1, 0, 0.1}},
	}
	for i, j := range bad {
		if err := s.Submit(j); err == nil {
			t.Errorf("bad job %d accepted", i)
		}
	}
	// Out-of-order submission is legal and dispatches in arrival order.
	var order []int
	s2, err := hierdrl.NewSession(hierdrl.RoundRobin(2), hierdrl.WithObserver(hierdrl.Observer{
		OnJobDone: func(_ hierdrl.Time, j *hierdrl.ClusterJob) {
			order = append(order, int(j.Arrival.Seconds()))
		},
	}))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s2.Close()
	for _, at := range []float64{500, 100, 300} {
		if err := s2.Submit(hierdrl.Job{Arrival: at, Duration: 10, Req: [3]float64{0.1, 0.1, 0.1}}); err != nil {
			t.Fatalf("Submit(%v): %v", at, err)
		}
	}
	if err := s2.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(order) != 3 || order[0] != 100 || order[1] != 300 || order[2] != 500 {
		t.Fatalf("completion order %v, want arrivals served in time order", order)
	}
}

// TestSessionSubmitTraceAtomic checks a malformed trace is rejected without
// ingesting anything: the session stays clean and a subsequent valid
// submission runs to completion.
func TestSessionSubmitTraceAtomic(t *testing.T) {
	s, err := hierdrl.NewSession(hierdrl.RoundRobin(2))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	bad := &hierdrl.Trace{Jobs: []hierdrl.Job{
		{Arrival: 100, Duration: 60, Req: [3]float64{0.1, 0.1, 0.1}},
		{Arrival: 50, Duration: 60, Req: [3]float64{0.1, 0.1, 0.1}},
		{Arrival: 10, Duration: -1, Req: [3]float64{0.1, 0.1, 0.1}},
	}}
	if err := s.SubmitTrace(bad); err == nil {
		t.Fatal("malformed trace accepted")
	}
	if s.Ingested() != 0 || s.Pending() != 0 {
		t.Fatalf("partial ingestion: ingested=%d pending=%d", s.Ingested(), s.Pending())
	}
	good := hierdrl.SyntheticTraceForCluster(100, 2, 1)
	if err := s.SubmitTrace(good); err != nil {
		t.Fatalf("SubmitTrace after rejection: %v", err)
	}
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if res, err := s.Result(); err != nil || res.Summary.Jobs != 100 {
		t.Fatalf("Result after rejected batch: %v (%+v)", err, res)
	}
}

// TestSessionIncrementalDrains checks a session survives multiple
// submit/drain rounds — the long-lived usage Run can't express.
func TestSessionIncrementalDrains(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(300, 3, 11)
	s, err := hierdrl.NewSession(hierdrl.RoundRobin(3))
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	third := tr.Len() / 3
	for part := 0; part < 3; part++ {
		for _, j := range tr.Jobs[part*third : (part+1)*third] {
			if err := s.Submit(j); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("Drain %d: %v", part, err)
		}
		if got := s.Completed(); got != int64((part+1)*third) {
			t.Fatalf("after round %d: completed %d want %d", part, got, (part+1)*third)
		}
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Summary.Jobs != 3*third {
		t.Fatalf("summary jobs %d want %d", res.Summary.Jobs, 3*third)
	}
}

// --- registry extension points ---

// testGreedyAlloc is a custom allocator registered through the public
// registry: it picks the lowest-CPU-committed awake server.
type testGreedyAlloc struct{}

func (testGreedyAlloc) Allocate(_ *hierdrl.ClusterJob, v *hierdrl.ClusterView) int {
	best, bestLoad := 0, math.Inf(1)
	for i := 0; i < v.M; i++ {
		if load := v.Util[i][0] + v.Pending[i][0]; load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// testNapManager is a custom power manager: fixed 45 s timeout.
type testNapManager struct{}

func (testNapManager) OnIdle(hierdrl.Time, *hierdrl.Server) float64 { return 45 }
func (testNapManager) OnArrival(hierdrl.Time, *hierdrl.Server, hierdrl.PowerState) {
}
func (testNapManager) Observe(hierdrl.Time, float64, int) {}

func init() {
	errDeliberate := errors.New("deliberate failure")
	hierdrl.RegisterAllocator("test-failing-alloc", func(*hierdrl.Config, *hierdrl.RNG) (hierdrl.Allocator, error) {
		return nil, errDeliberate
	})
	hierdrl.RegisterPowerManager("test-failing-pm", func(*hierdrl.Config, int, *hierdrl.RNG) (hierdrl.PowerManager, error) {
		return nil, errDeliberate
	})
	hierdrl.RegisterAllocator("test-greedy", func(*hierdrl.Config, *hierdrl.RNG) (hierdrl.Allocator, error) {
		return testGreedyAlloc{}, nil
	})
	hierdrl.RegisterPowerManager("test-nap", func(*hierdrl.Config, int, *hierdrl.RNG) (hierdrl.PowerManager, error) {
		return testNapManager{}, nil
	})
	twin, _ := hierdrl.LookupScenario("steady")
	twin.Name = "test-steady-twin"
	hierdrl.RegisterScenario(twin)
}

// TestCustomPoliciesViaRegistry is the registry acceptance test: custom
// Allocator and PowerManager implementations resolve through the Config
// strings and run end to end, as does a non-default built-in predictor.
func TestCustomPoliciesViaRegistry(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(400, 4, 17)

	// Custom allocator + custom power manager.
	cfg := hierdrl.RoundRobin(4)
	cfg.Name = "custom"
	cfg.Alloc = "test-greedy"
	cfg.DPM = "test-nap"
	res, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatalf("Run with custom policies: %v", err)
	}
	if res.Summary.Jobs != tr.Len() {
		t.Fatalf("jobs %d want %d", res.Summary.Jobs, tr.Len())
	}
	if res.Summary.Shutdowns == 0 {
		t.Error("custom nap manager never slept")
	}

	// A baseline predictor feeding the built-in RL power manager.
	cfg2 := hierdrl.Hierarchical(4)
	cfg2.Alloc = hierdrl.AllocRoundRobin // keep the test cheap: no DRL tier
	cfg2.Predictor = hierdrl.PredictorEWMA
	res2, err := hierdrl.Run(cfg2, tr)
	if err != nil {
		t.Fatalf("Run with the ewma predictor: %v", err)
	}
	if res2.Summary.Jobs != tr.Len() {
		t.Fatalf("jobs %d want %d", res2.Summary.Jobs, tr.Len())
	}

	// Unknown names still fail validation.
	bad := hierdrl.RoundRobin(4)
	bad.Alloc = "no-such-alloc"
	if _, err := hierdrl.NewSession(bad); err == nil {
		t.Error("unknown allocator accepted")
	}
	bad = hierdrl.RoundRobin(4)
	bad.DPM = "no-such-dpm"
	if _, err := hierdrl.NewSession(bad); err == nil {
		t.Error("unknown power manager accepted")
	}
	bad = hierdrl.Hierarchical(4)
	bad.Alloc = hierdrl.AllocRoundRobin
	bad.Predictor = "no-such-predictor"
	if _, err := hierdrl.NewSession(bad); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// TestFactoryErrorsSurfaceFromNewSession checks a registered factory that
// fails (the documented validate-in-factory pattern for external policies)
// produces an error from NewSession on both open extension points — never a
// panic — and that the closed predictor set rejects a name outside it.
func TestFactoryErrorsSurfaceFromNewSession(t *testing.T) {
	cfg := hierdrl.RoundRobin(2)
	cfg.Alloc = "test-failing-alloc"
	if _, err := hierdrl.NewSession(cfg); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("failing allocator factory: err = %v", err)
	}
	cfg = hierdrl.RoundRobin(2)
	cfg.DPM = "test-failing-pm"
	if _, err := hierdrl.NewSession(cfg); err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("failing power-manager factory: err = %v", err)
	}
	cfg = hierdrl.Hierarchical(2)
	cfg.Alloc = hierdrl.AllocRoundRobin
	cfg.Predictor = "test-failing-pred"
	if _, err := hierdrl.NewSession(cfg); err == nil || !strings.Contains(err.Error(), "unknown predictor") {
		t.Errorf("predictor outside the closed set: err = %v", err)
	}
}

// TestRegisterPanicsOnMisuse pins the misuse contract of all three registries:
// an empty name, a nil factory (an invalid scenario), a duplicate and a
// built-in override each panic with the registry's own message, and every
// listing is sorted and contains both built-ins and test registrations.
func TestRegisterPanicsOnMisuse(t *testing.T) {
	alloc := func(*hierdrl.Config, *hierdrl.RNG) (hierdrl.Allocator, error) { return testGreedyAlloc{}, nil }
	pm := func(*hierdrl.Config, int, *hierdrl.RNG) (hierdrl.PowerManager, error) { return testNapManager{}, nil }
	scen := func(name string) hierdrl.Scenario {
		sc, _ := hierdrl.LookupScenario("steady")
		sc.Name = name
		return sc
	}
	registries := []struct {
		kind string
		// register adds name; valid false passes a nil factory (for
		// scenarios: a scenario that fails Validate).
		register func(name string, valid bool)
		names    func() []string
		// existing is a test registration (see init), builtin a built-in.
		existing, builtin string
		// misuse and dup are the panic texts for an empty name / nil factory
		// and for a taken name.
		misuse, dup string
	}{
		{"allocator", func(n string, ok bool) {
			f := alloc
			if !ok {
				f = nil
			}
			hierdrl.RegisterAllocator(hierdrl.AllocPolicy(n), f)
		}, func() []string { return asStrings(hierdrl.Allocators()) },
			"test-greedy", string(hierdrl.AllocRoundRobin),
			"hierdrl: RegisterAllocator with empty name or nil factory", "hierdrl: allocator %q already registered"},
		{"power manager", func(n string, ok bool) {
			f := pm
			if !ok {
				f = nil
			}
			hierdrl.RegisterPowerManager(hierdrl.DPMKind(n), f)
		}, func() []string { return asStrings(hierdrl.PowerManagers()) },
			"test-nap", string(hierdrl.DPMRL),
			"hierdrl: RegisterPowerManager with empty name or nil factory", "hierdrl: power manager %q already registered"},
		{"scenario", func(n string, ok bool) {
			sc := scen(n)
			if !ok {
				sc.M = 0
			}
			hierdrl.RegisterScenario(sc)
		}, hierdrl.Scenarios,
			"test-steady-twin", "steady",
			"", "hierdrl: scenario %q already registered"},
	}
	// panicText runs f and returns what it panicked with ("" if it did not).
	panicText := func(f func()) (text string) {
		defer func() {
			if r := recover(); r != nil {
				text = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, r := range registries {
		for _, name := range []string{r.existing, r.builtin} {
			if got, want := panicText(func() { r.register(name, true) }), fmt.Sprintf(r.dup, name); got != want {
				t.Errorf("%s: re-registering %q panicked with %q, want %q", r.kind, name, got, want)
			}
		}
		emptyName := panicText(func() { r.register("", true) })
		nilFactory := panicText(func() { r.register("test-misuse-"+r.kind, false) })
		if r.misuse != "" {
			if emptyName != r.misuse || nilFactory != r.misuse {
				t.Errorf("%s: empty name panicked with %q, nil factory with %q, want %q", r.kind, emptyName, nilFactory, r.misuse)
			}
		} else if !strings.Contains(emptyName, "empty name") || !strings.Contains(nilFactory, "M must be positive") {
			// Scenarios panic with their own Validate error.
			t.Errorf("%s: empty name panicked with %q, invalid scenario with %q", r.kind, emptyName, nilFactory)
		}
		names := r.names()
		if !sort.StringsAreSorted(names) {
			t.Errorf("%s: listing not sorted: %v", r.kind, names)
		}
		for _, want := range []string{r.existing, r.builtin} {
			if i := sort.SearchStrings(names, want); i == len(names) || names[i] != want {
				t.Errorf("%s: listing %v lacks %q", r.kind, names, want)
			}
		}
		if i := sort.SearchStrings(names, "test-misuse-"+r.kind); i < len(names) && names[i] == "test-misuse-"+r.kind {
			t.Errorf("%s: a rejected registration is listed", r.kind)
		}
	}
}

// asStrings converts a registry listing to plain strings.
func asStrings[K ~string](names []K) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = string(n)
	}
	return out
}

// TestValidateClusterOverride pins the validate() fix: explicit Cluster
// overrides are checked for completeness and consistency with M, from both
// Run and NewSession.
func TestValidateClusterOverride(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(20, 4, 1)

	// Mismatched M must fail.
	cfg := hierdrl.RoundRobin(4)
	cfg.Cluster = cluster.DefaultConfig(6)
	if _, err := hierdrl.Run(cfg, tr); err == nil {
		t.Error("Run accepted Cluster.M=6 with M=4")
	}
	if _, err := hierdrl.NewSession(cfg); err == nil {
		t.Error("NewSession accepted Cluster.M=6 with M=4")
	}

	// A partial override (fields set but M left zero) used to be silently
	// discarded in favor of the derived default; now it is an error.
	cfg = hierdrl.RoundRobin(4)
	cfg.Cluster.HotSpotThreshold = 0.9
	if _, err := hierdrl.NewSession(cfg); err == nil {
		t.Error("NewSession accepted a partial Cluster override")
	}

	// An explicit but internally invalid override fails eagerly.
	cfg = hierdrl.RoundRobin(4)
	cfg.Cluster = cluster.DefaultConfig(4)
	cfg.Cluster.HotSpotThreshold = 1.5
	if _, err := hierdrl.NewSession(cfg); err == nil {
		t.Error("NewSession accepted HotSpotThreshold=1.5")
	}

	// A complete, consistent override still works.
	cfg = hierdrl.RoundRobin(4)
	cfg.Cluster = cluster.DefaultConfig(4)
	cfg.Cluster.Server.TonSeconds = 10
	if _, err := hierdrl.Run(cfg, tr); err != nil {
		t.Errorf("valid explicit override rejected: %v", err)
	}
}

// TestSessionCloseStopsTrainHelper opens and closes 20 DRL sessions, the
// last two as Checkpoint -> Restore -> Close: while a trained session is open
// the goroutine count is its baseline plus the one parked train-step helper,
// and after Close it is back at the baseline. Under GOMAXPROCS=1 no helper
// starts at all.
func TestSessionCloseStopsTrainHelper(t *testing.T) {
	cfg := hierdrl.DRLOnly(6)
	cfg.Global.AEHidden, cfg.Global.SubQHidden, cfg.Global.ReplayCap = []int{8, 4}, 16, 256
	tr := hierdrl.SyntheticTraceForCluster(300, 6, 1)
	open := func() *hierdrl.Session {
		s, err := hierdrl.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// An exited goroutine leaves the count a moment after its last deferred
	// call has run, so poll briefly for the expected count.
	settle := func(want int) int {
		n := runtime.NumGoroutine()
		for i := 0; i < 200 && n != want; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 1} {
		runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		helpers := 0
		if procs > 1 {
			helpers = 1
		}
		for i := 0; i < 18; i++ {
			s := open()
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if n := settle(base + helpers); n != base+helpers {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines with a trained session open, want %d", procs, n, base+helpers)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if n := settle(base); n != base {
				t.Fatalf("GOMAXPROCS=%d: %d goroutines after Close, baseline %d", procs, n, base)
			}
		}
		s := open()
		stepToCompleted(t, s, 150)
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		r, err := hierdrl.Restore(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Drain(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if n := settle(base); n != base {
			t.Fatalf("GOMAXPROCS=%d: %d goroutines after Checkpoint -> Restore -> Close, baseline %d", procs, n, base)
		}
	}
}
