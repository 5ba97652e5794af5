package local

import (
	"math"
	"testing"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

func TestStaticPolicies(t *testing.T) {
	if got := AlwaysOn.OnIdle(0, nil); !math.IsInf(got, 1) {
		t.Fatalf("AlwaysOn timeout %v want +Inf", got)
	}
	if got := AdHoc.OnIdle(0, nil); got != 0 {
		t.Fatalf("AdHoc timeout %v want 0", got)
	}
	if got := NewFixedTimeout(60).OnIdle(0, nil); got != 60 {
		t.Fatalf("FixedTimeout timeout %v want 60", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative fixed timeout must panic")
		}
	}()
	NewFixedTimeout(-1)
}

func TestLastValuePredictor(t *testing.T) {
	p := NewLastValue()
	if !math.IsInf(p.Predict(), 1) {
		t.Fatal("empty LastValue should predict +Inf")
	}
	p.ObserveArrival(10)
	p.ObserveArrival(25)
	if got := p.Predict(); got != 15 {
		t.Fatalf("LastValue predict %v want 15", got)
	}
	p.ObserveArrival(30)
	if got := p.Predict(); got != 5 {
		t.Fatalf("LastValue predict %v want 5", got)
	}
}

func TestEWMAPredictor(t *testing.T) {
	p := NewEWMA(0.5)
	p.ObserveArrival(0)
	p.ObserveArrival(10) // est = 10
	p.ObserveArrival(30) // est = 0.5*20 + 0.5*10 = 15
	if got := p.Predict(); got != 15 {
		t.Fatalf("EWMA predict %v want 15", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad alpha must panic")
		}
	}()
	NewEWMA(0)
}

func TestWindowMeanPredictor(t *testing.T) {
	p := NewWindowMean(2)
	p.ObserveArrival(0)
	p.ObserveArrival(10)
	p.ObserveArrival(30) // gaps 10, 20 -> mean 15
	if got := p.Predict(); got != 15 {
		t.Fatalf("WindowMean predict %v want 15", got)
	}
	p.ObserveArrival(32) // gaps 20, 2 -> mean 11
	if got := p.Predict(); got != 11 {
		t.Fatalf("WindowMean predict %v want 11 (window slides)", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero window must panic")
		}
	}()
	NewWindowMean(0)
}

func TestRLConfigValidate(t *testing.T) {
	if err := DefaultRLConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mod := func(f func(*RLConfig)) RLConfig {
		c := DefaultRLConfig()
		f(&c)
		return c
	}
	bad := []RLConfig{
		mod(func(c *RLConfig) { c.Timeouts = nil }),
		mod(func(c *RLConfig) { c.Timeouts = []float64{-1} }),
		mod(func(c *RLConfig) { c.Timeouts = []float64{math.Inf(1)} }),
		mod(func(c *RLConfig) { c.Alpha = 0 }),
		mod(func(c *RLConfig) { c.Beta = 0 }),
		mod(func(c *RLConfig) { c.PowerWeight = 1.5 }),
		mod(func(c *RLConfig) { c.PowerNormW = 0 }),
		mod(func(c *RLConfig) { c.Timeouts = []float64{math.NaN()} }),
		mod(func(c *RLConfig) { c.Alpha = math.NaN() }),
		mod(func(c *RLConfig) { c.Beta = math.NaN() }),
		mod(func(c *RLConfig) { c.Beta = math.Inf(1) }),
		mod(func(c *RLConfig) { c.Epsilon = math.NaN() }),
		mod(func(c *RLConfig) { c.Epsilon = 2 }),
		mod(func(c *RLConfig) { c.EpsilonMin = 0.5 }),
		mod(func(c *RLConfig) { c.EpsilonDecay = 0 }),
		mod(func(c *RLConfig) { c.PowerWeight = math.NaN() }),
		mod(func(c *RLConfig) { c.PowerNormW = math.NaN() }),
		mod(func(c *RLConfig) { c.OptimisticInit = math.Inf(-1) }),
		mod(func(c *RLConfig) { c.PredictorBounds = []float64{30, 15} }),
		mod(func(c *RLConfig) { c.PredictorBounds = []float64{15, 15} }),
		mod(func(c *RLConfig) { c.PredictorBounds = []float64{15, math.NaN()} }),
		mod(func(c *RLConfig) { c.PredictorBounds = []float64{15, math.Inf(1)} }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	rng := mat.NewRNG(1)
	if _, err := NewRLTimeout(DefaultRLConfig(), nil, rng); err == nil {
		t.Fatal("nil predictor accepted")
	}
}

// oneServer builds a one-server cluster on sm under dpm and returns its
// server.
func oneServer(t *testing.T, sm *sim.Simulator, scfg cluster.ServerConfig, dpm cluster.DPMPolicy) *cluster.Server {
	t.Helper()
	cfg := cluster.DefaultConfig(1)
	cfg.Server = scfg
	cl, err := cluster.New(cfg, sm, func(int) cluster.DPMPolicy { return dpm })
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return cl.Server(0)
}

// runServerWithRL drives one server under the RL power manager with a
// perfectly periodic workload and returns the manager.
func runServerWithRL(t *testing.T, cfg RLConfig, gap, duration float64, cycles int) *RLTimeout {
	t.Helper()
	rng := mat.NewRNG(99)
	mgr, err := NewRLTimeout(cfg, NewEWMA(0.3), rng)
	if err != nil {
		t.Fatalf("NewRLTimeout: %v", err)
	}
	sm := sim.New()
	scfg := cluster.DefaultServerConfig()
	scfg.InitialState = cluster.StateActive
	srv := oneServer(t, sm, scfg, mgr)
	for i := 0; i < cycles; i++ {
		j := &cluster.Job{
			ID: i, Arrival: sim.Time(float64(i) * gap), Duration: duration,
			Req: cluster.Resources{0.5, 0.2, 0.1}, Server: -1,
		}
		j2 := j
		sm.Schedule(j.Arrival, func() { srv.Submit(j2) })
	}
	sm.RunAll(int64(cycles * 50))
	return mgr
}

// With frequent arrivals (10 s apart) and latency-sensitive weighting, the
// learned policy must keep the server on through the short idle gaps rather
// than thrash through 30+30 s transitions.
func TestRLTimeoutLearnsToStayOnUnderFrequentArrivals(t *testing.T) {
	cfg := DefaultRLConfig()
	cfg.PowerWeight = 0.3 // latency matters more
	mgr := runServerWithRL(t, cfg, 10, 5, 2000)

	if mgr.Decisions() == 0 || mgr.Updates() == 0 {
		t.Fatalf("no learning happened: decisions=%d updates=%d",
			mgr.Decisions(), mgr.Updates())
	}
	// The steady-state idle gap is 5 s, predicted category c0 (< 15 s).
	best, _ := mgr.table.Best(0)
	if to := cfg.Timeouts[best]; to < 15 {
		t.Fatalf("learned timeout %v for frequent arrivals; want >= 15 (stay on)", to)
	}
}

// With rare arrivals (2000 s apart) and power-focused weighting, the learned
// policy must sleep quickly instead of idling at 87 W.
func TestRLTimeoutLearnsToSleepUnderRareArrivals(t *testing.T) {
	cfg := DefaultRLConfig()
	cfg.PowerWeight = 0.95 // power matters much more
	mgr := runServerWithRL(t, cfg, 2000, 10, 600)

	// Predicted gap ~2000 s falls in the top category.
	best, _ := mgr.table.Best(6)
	if to := cfg.Timeouts[best]; to > 30 {
		t.Fatalf("learned timeout %v for rare arrivals; want <= 30 (sleep fast)", to)
	}
}

func TestRLTimeoutFreezePolicy(t *testing.T) {
	rng := mat.NewRNG(5)
	mgr, err := NewRLTimeout(DefaultRLConfig(), NewLastValue(), rng)
	if err != nil {
		t.Fatalf("NewRLTimeout: %v", err)
	}
	mgr.FreezePolicy()
	if mgr.eps.Epsilon() != 0 {
		t.Fatalf("epsilon after freeze %v want 0", mgr.eps.Epsilon())
	}
}

// The reward integrator must see every rate change; this scripted scenario
// checks the first Q update numerically. One decision epoch at t=10 picks a
// timeout; the server idles, sleeps, a job arrives and runs; the next idle
// epoch closes the sojourn. With alpha=1 and a fresh table the new Q value
// equals the SMDP target computed from the integrated reward. The action set
// is the one timeout 0, so the state's best value is that Q value.
func TestRLTimeoutFirstUpdateMatchesIntegral(t *testing.T) {
	cfg := DefaultRLConfig()
	cfg.Alpha = 1
	cfg.Timeouts = []float64{0}
	cfg.Epsilon = 0 // deterministic greedy
	cfg.EpsilonMin = 0
	cfg.PowerWeight = 1 // reward = -P/145 only: independent of queue
	rng := mat.NewRNG(7)
	mgr, err := NewRLTimeout(cfg, NewLastValue(), rng)
	if err != nil {
		t.Fatalf("NewRLTimeout: %v", err)
	}
	sm := sim.New()
	scfg := cluster.DefaultServerConfig()
	scfg.InitialState = cluster.StateActive
	srv := oneServer(t, sm, scfg, mgr)

	// Job 1: runs 0-10. Idle epoch at t=10 chooses timeout 0 (greedy tie).
	// Shutdown 10-40, sleep 40-100. Job 2 arrives at 100: wake 100-130,
	// run 130-140. Second idle epoch at t=140 closes the sojourn.
	j1 := &cluster.Job{ID: 0, Arrival: 0, Duration: 10, Req: cluster.Resources{0.5, 0.1, 0.1}, Server: -1}
	j2 := &cluster.Job{ID: 1, Arrival: 100, Duration: 10, Req: cluster.Resources{0.5, 0.1, 0.1}, Server: -1}
	sm.Schedule(0, func() { srv.Submit(j1) })
	sm.Schedule(100, func() { srv.Submit(j2) })
	sm.RunAll(100)

	if mgr.Updates() != 1 {
		t.Fatalf("updates %d want 1", mgr.Updates())
	}
	// Reproduce the expected exact integral over [10, 140):
	// [10,40) shutdown at 145 W, [40,100) sleep 0 W, [100,130) wake 145 W,
	// [130,140) active at P(0.5).
	pm := scfg.Power
	beta := cfg.Beta
	exp := func(x float64) float64 { return math.Exp(x) }
	seg := func(t0, t1, watts float64) float64 {
		// ∫ e^{-beta (u-10)} (-watts/145) du over [t0, t1)
		return -(watts / 145) * (exp(-beta*(t0-10)) - exp(-beta*(t1-10))) / beta
	}
	integral := seg(10, 40, pm.Transition()) + seg(40, 100, 0) +
		seg(100, 130, pm.Transition()) + seg(130, 140, pm.Active(0.5))
	tau := 130.0
	gain := (1 - exp(-beta*tau)) / beta
	rEq := integral / gain
	// Fresh table: max_a' Q = 0, so target = gain * rEq = integral.
	want := gain * rEq
	_, got := mgr.table.Best(6) // first prediction is +Inf -> top category
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("first Q update %v want %v", got, want)
	}
}

// RLTimeout must satisfy cluster.DPMPolicy and never return invalid
// timeouts under a random workload.
func TestRLTimeoutAlwaysValidTimeouts(t *testing.T) {
	rng := mat.NewRNG(11)
	cfg := DefaultRLConfig()
	mgr, err := NewRLTimeout(cfg, NewEWMA(0.5), rng)
	if err != nil {
		t.Fatalf("NewRLTimeout: %v", err)
	}
	sm := sim.New()
	scfg := cluster.DefaultServerConfig()
	srv := oneServer(t, sm, scfg, mgr)
	tNow := 0.0
	for i := 0; i < 300; i++ {
		tNow += rng.Exponential(1.0 / 40)
		j := &cluster.Job{ID: i, Arrival: sim.Time(tNow), Duration: 5 + rng.Float64()*60,
			Req: cluster.Resources{0.1 + rng.Float64()*0.4, 0.1, 0.1}, Server: -1}
		j2 := j
		sm.Schedule(j.Arrival, func() { srv.Submit(j2) })
	}
	// The server panics on invalid timeouts, so surviving RunAll is the
	// assertion.
	sm.RunAll(100000)
	if srv.Completed() != 300 {
		t.Fatalf("completed %d want 300", srv.Completed())
	}
}
