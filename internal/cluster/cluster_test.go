package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"hierdrl/internal/fault"
	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

// fixedDPM is a test stub: constant timeout, no learning.
type fixedDPM struct{ timeout float64 }

func (d fixedDPM) OnIdle(sim.Time, *Server) float64           { return d.timeout }
func (d fixedDPM) OnArrival(sim.Time, *Server, PowerState)    {}
func (d fixedDPM) Observe(t sim.Time, powerW float64, jq int) {}

// recordingDPM captures the decision-epoch callbacks for assertions.
type recordingDPM struct {
	timeout  float64
	idleAt   []sim.Time
	arrivals []PowerState
}

func (d *recordingDPM) OnIdle(t sim.Time, _ *Server) float64 {
	d.idleAt = append(d.idleAt, t)
	return d.timeout
}
func (d *recordingDPM) OnArrival(_ sim.Time, _ *Server, st PowerState) {
	d.arrivals = append(d.arrivals, st)
}
func (d *recordingDPM) Observe(sim.Time, float64, int) {}

func mkJob(id int, arrival, duration, cpu float64) *Job {
	return &Job{
		ID:       id,
		Arrival:  sim.Time(arrival),
		Duration: duration,
		Req:      Resources{cpu, cpu / 2, cpu / 4},
		Server:   -1,
	}
}

// newTestServer builds a one-server cluster on sm and returns its server.
func newTestServer(t *testing.T, sm *sim.Simulator, cfg ServerConfig, dpm DPMPolicy) *Server {
	t.Helper()
	c, err := New(Config{M: 1, Server: cfg, HotSpotThreshold: 0.8}, sm, func(int) DPMPolicy { return dpm })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c.Server(0)
}

func TestPowerModelEndpoints(t *testing.T) {
	p := DefaultPowerModel()
	if got := p.Active(0); math.Abs(got-87) > 1e-12 {
		t.Fatalf("P(0%%) = %v want 87", got)
	}
	if got := p.Active(1); math.Abs(got-145) > 1e-12 {
		t.Fatalf("P(100%%) = %v want 145", got)
	}
	if p.Sleep() != 0 {
		t.Fatalf("sleep power = %v want 0", p.Sleep())
	}
	if p.Transition() != 145 {
		t.Fatalf("transition power = %v want 145", p.Transition())
	}
	// Clamping.
	if p.Active(-1) != p.Active(0) || p.Active(2) != p.Active(1) {
		t.Fatal("Active must clamp utilization to [0,1]")
	}
}

// Property: Eqn. (3) is monotone increasing in utilization and bounded by
// [idle, peak].
func TestPowerModelMonotoneProperty(t *testing.T) {
	p := DefaultPowerModel()
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		pa, pb := p.Active(a), p.Active(b)
		return pa <= pb+1e-12 && pa >= p.IdleW-1e-12 && pb <= p.PeakW+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerModelValidate(t *testing.T) {
	bad := []PowerModel{
		{IdleW: -1, PeakW: 100, TransitionW: 100},
		{IdleW: 100, PeakW: 50, TransitionW: 100},
		{IdleW: 87, PeakW: 145, TransitionW: 50},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
	if err := DefaultPowerModel().Validate(); err != nil {
		t.Fatalf("default model rejected: %v", err)
	}
}

func TestResourcesOps(t *testing.T) {
	a := Resources{0.5, 0.3, 0.1}
	b := Resources{0.2, 0.2, 0.05}
	sum := a.Add(b)
	wantSum := Resources{0.7, 0.5, 0.15}
	for p := range sum {
		if math.Abs(sum[p]-wantSum[p]) > 1e-12 {
			t.Fatalf("Add: %v", sum)
		}
	}
	diff := sum.Sub(b)
	for p := range diff {
		if math.Abs(diff[p]-a[p]) > 1e-12 {
			t.Fatalf("Sub: %v", diff)
		}
	}
	if !b.FitsIn(a) {
		t.Fatal("b should fit in a")
	}
	if (Resources{0.6, 0, 0}).FitsIn(a) {
		t.Fatal("0.6 CPU should not fit in 0.5")
	}
	if a.MaxFrac() != 0.5 {
		t.Fatalf("MaxFrac: %v", a.MaxFrac())
	}
	if !a.NonNegative() {
		t.Fatal("a is non-negative")
	}
	if (Resources{-0.1, 0, 0}).NonNegative() {
		t.Fatal("negative resource accepted")
	}
	if err := (Resources{0.5, 1.2, 0}).Validate(); err == nil {
		t.Fatal("over-unit resource accepted")
	}
}

func TestServerLifecycleTimings(t *testing.T) {
	sm := sim.New()
	cfg := DefaultServerConfig() // Ton=Toff=30, starts asleep
	dpm := &recordingDPM{timeout: 60}
	s := newTestServer(t, sm, cfg, dpm)

	j := mkJob(0, 100, 200, 0.5)
	sm.Schedule(j.Arrival, func() { s.Submit(j) })
	sm.RunAll(100)

	// Waking 100->130, executing 130->330, idle 330->390, shutdown 390->420.
	if st, ok := j.StartedAt(); !ok || st != 130 {
		t.Fatalf("job started at %v want 130", st)
	}
	if fin, ok := j.FinishedAt(); !ok || fin != 330 {
		t.Fatalf("job finished at %v want 330", fin)
	}
	if j.Latency() != 230 {
		t.Fatalf("latency %v want 230", j.Latency())
	}
	if j.WaitTime() != 30 {
		t.Fatalf("wait time %v want 30 (Ton)", j.WaitTime())
	}
	if s.State() != StateSleep {
		t.Fatalf("final state %v want sleep", s.State())
	}
	if len(dpm.idleAt) != 1 || dpm.idleAt[0] != 330 {
		t.Fatalf("idle epochs %v want [330]", dpm.idleAt)
	}
	if len(dpm.arrivals) != 1 || dpm.arrivals[0] != StateSleep {
		t.Fatalf("arrival epochs %v want [sleep]", dpm.arrivals)
	}
	if s.Wakeups() != 1 || s.Shutdowns() != 1 || s.Completed() != 1 {
		t.Fatalf("counters: wake=%d shut=%d done=%d", s.Wakeups(), s.Shutdowns(), s.Completed())
	}

	// Exact energy accounting at t=500.
	pm := cfg.Power
	want := 30*pm.Transition() + 200*pm.Active(0.5) + 60*pm.Active(0) + 30*pm.Transition()
	if got := s.EnergyJoules(500); math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy %v want %v", got, want)
	}
}

func TestServerFCFSFig3Scenario(t *testing.T) {
	// Paper Fig. 3: job1 (50%) and job2 (40%) run immediately; job3 (40%)
	// arrives while 90% is used and must wait for job1's completion.
	sm := sim.New()
	cfg := DefaultServerConfig()
	cfg.InitialState = StateActive
	s := newTestServer(t, sm, cfg, fixedDPM{timeout: math.Inf(1)})

	j1 := &Job{ID: 1, Arrival: 0, Duration: 100, Req: Resources{0.5, 0.1, 0.1}, Server: -1}
	j2 := &Job{ID: 2, Arrival: 10, Duration: 200, Req: Resources{0.4, 0.1, 0.1}, Server: -1}
	j3 := &Job{ID: 3, Arrival: 20, Duration: 50, Req: Resources{0.4, 0.1, 0.1}, Server: -1}
	for _, j := range []*Job{j1, j2, j3} {
		j := j
		sm.Schedule(j.Arrival, func() { s.Submit(j) })
	}
	sm.RunAll(100)

	if st, _ := j1.StartedAt(); st != 0 {
		t.Fatalf("j1 started %v want 0", st)
	}
	if st, _ := j2.StartedAt(); st != 10 {
		t.Fatalf("j2 started %v want 10", st)
	}
	if st, _ := j3.StartedAt(); st != 100 {
		t.Fatalf("j3 started %v want 100 (after j1 completes)", st)
	}
	if j3.Latency() != 130 {
		t.Fatalf("j3 latency %v want 130 (80 wait + 50 run)", j3.Latency())
	}
}

func TestServerHeadOfLineBlocking(t *testing.T) {
	// FCFS means a small job cannot overtake a blocked head-of-queue job
	// even when it would fit.
	sm := sim.New()
	cfg := DefaultServerConfig()
	cfg.InitialState = StateActive
	s := newTestServer(t, sm, cfg, fixedDPM{timeout: math.Inf(1)})

	j1 := &Job{ID: 1, Arrival: 0, Duration: 100, Req: Resources{0.6, 0.1, 0.1}, Server: -1}
	j2 := &Job{ID: 2, Arrival: 10, Duration: 10, Req: Resources{0.6, 0.1, 0.1}, Server: -1}
	j3 := &Job{ID: 3, Arrival: 20, Duration: 10, Req: Resources{0.1, 0.1, 0.1}, Server: -1}
	for _, j := range []*Job{j1, j2, j3} {
		j := j
		sm.Schedule(j.Arrival, func() { s.Submit(j) })
	}
	sm.RunAll(100)

	if st, _ := j3.StartedAt(); st != 100 {
		t.Fatalf("j3 started %v want 100: FCFS must not let it overtake j2", st)
	}
	if st, _ := j2.StartedAt(); st != 100 {
		t.Fatalf("j2 started %v want 100", st)
	}
}

func TestArrivalDuringShutdownFig4a(t *testing.T) {
	// Ad-hoc power management (timeout 0): a job arriving mid-shutdown
	// waits out Toff then a full Ton (Fig. 4(a)).
	sm := sim.New()
	cfg := DefaultServerConfig()
	dpm := fixedDPM{timeout: 0}
	s := newTestServer(t, sm, cfg, dpm)

	j1 := mkJob(1, 0, 100, 0.5)  // wake 0-30, run 30-130, shutdown 130-160
	j2 := mkJob(2, 140, 50, 0.5) // arrives mid-shutdown
	for _, j := range []*Job{j1, j2} {
		j := j
		sm.Schedule(j.Arrival, func() { s.Submit(j) })
	}
	sm.RunAll(100)

	if fin, _ := j1.FinishedAt(); fin != 130 {
		t.Fatalf("j1 finished %v want 130", fin)
	}
	// Shutdown completes at 160, wake 160-190, j2 runs 190-240.
	if st, _ := j2.StartedAt(); st != 190 {
		t.Fatalf("j2 started %v want 190 (Toff completes, then Ton)", st)
	}
	if j2.Latency() != 100 {
		t.Fatalf("j2 latency %v want 100", j2.Latency())
	}
	if s.Wakeups() != 2 {
		t.Fatalf("wakeups %d want 2", s.Wakeups())
	}
}

func TestTimeoutAvoidsShutdownFig4b(t *testing.T) {
	// DPM with a timeout (Fig. 4(b)): a job arriving inside the timeout is
	// served immediately with no transition penalty.
	sm := sim.New()
	cfg := DefaultServerConfig()
	s := newTestServer(t, sm, cfg, fixedDPM{timeout: 60})

	j1 := mkJob(1, 0, 100, 0.5)  // wake 0-30, run 30-130, idle from 130
	j2 := mkJob(2, 150, 50, 0.5) // arrives inside the [130,190] timeout
	for _, j := range []*Job{j1, j2} {
		j := j
		sm.Schedule(j.Arrival, func() { s.Submit(j) })
	}
	sm.RunAll(100)

	if st, _ := j2.StartedAt(); st != 150 {
		t.Fatalf("j2 started %v want 150 (no wake needed)", st)
	}
	if j2.Latency() != 50 {
		t.Fatalf("j2 latency %v want 50", j2.Latency())
	}
	if s.Wakeups() != 1 {
		t.Fatalf("wakeups %d want 1 — timeout must have been cancelled", s.Wakeups())
	}
	if s.Shutdowns() != 1 { // only the final idle period expires
		t.Fatalf("shutdowns %d want 1", s.Shutdowns())
	}
}

func TestAlwaysOnNeverSleeps(t *testing.T) {
	sm := sim.New()
	cfg := DefaultServerConfig()
	cfg.InitialState = StateActive
	s := newTestServer(t, sm, cfg, fixedDPM{timeout: math.Inf(1)})
	j := mkJob(1, 10, 100, 0.3)
	sm.Schedule(j.Arrival, func() { s.Submit(j) })
	sm.RunAll(100)
	if s.State() != StateActive {
		t.Fatalf("state %v want active", s.State())
	}
	if s.Shutdowns() != 0 {
		t.Fatalf("shutdowns %d want 0", s.Shutdowns())
	}
	// Energy through t=200: idle except while running.
	pm := cfg.Power
	want := 100*pm.Active(0.3) + 100*pm.Active(0)
	if got := s.EnergyJoules(200); math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy %v want %v", got, want)
	}
}

func TestServerRejectsInvalidDPMTimeout(t *testing.T) {
	sm := sim.New()
	cfg := DefaultServerConfig()
	s := newTestServer(t, sm, cfg, fixedDPM{timeout: -5})
	j := mkJob(1, 0, 10, 0.5)
	sm.Schedule(0, func() { s.Submit(j) })
	defer func() {
		if recover() == nil {
			t.Fatal("negative DPM timeout must panic")
		}
	}()
	sm.RunAll(100)
}

func TestClusterAggregates(t *testing.T) {
	sm := sim.New()
	cfg := DefaultConfig(4)
	c, err := New(cfg, sm, func(int) DPMPolicy { return fixedDPM{timeout: 30} })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.M() != 4 {
		t.Fatalf("M = %d", c.M())
	}
	// All asleep: zero power.
	if c.TotalPower() != 0 || c.JobsInSystem() != 0 {
		t.Fatalf("initial aggregates: %v W, %d jobs", c.TotalPower(), c.JobsInSystem())
	}

	var changes int
	c.OnChange = func(sim.Time) { changes++ }
	var doneJobs []*Job
	c.OnJobDone = func(_ sim.Time, j *Job) { doneJobs = append(doneJobs, j) }

	jobs := []*Job{mkJob(0, 0, 100, 0.4), mkJob(1, 5, 100, 0.4), mkJob(2, 10, 100, 0.4)}
	targets := []int{0, 1, 0}
	for i, j := range jobs {
		j, srv := j, targets[i]
		sm.Schedule(j.Arrival, func() { c.Submit(j, srv) })
	}
	sm.Run(40) // both servers awake and running by t=40
	c.InvariantCheck()
	if c.JobsInSystem() != 3 {
		t.Fatalf("jobs in system %d want 3", c.JobsInSystem())
	}
	if c.TotalPower() <= 0 {
		t.Fatal("running cluster must draw power")
	}
	sm.RunAll(1000)
	c.InvariantCheck()
	if len(doneJobs) != 3 || c.Completed() != 3 {
		t.Fatalf("completion bookkeeping: done=%d completed=%d", len(doneJobs), c.Completed())
	}
	if changes == 0 {
		t.Fatal("OnChange never fired")
	}
	if c.TotalPower() != 0 {
		t.Fatalf("final power %v want 0 (all asleep)", c.TotalPower())
	}
	if c.TotalEnergyJoules(sm.Now()) <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestClusterSubmitBounds(t *testing.T) {
	sm := sim.New()
	c, err := New(DefaultConfig(2), sm, func(int) DPMPolicy { return fixedDPM{timeout: 0} })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range server must panic")
		}
	}()
	c.Submit(mkJob(0, 0, 10, 0.1), 2)
}

func TestReliabilityObj(t *testing.T) {
	sm := sim.New()
	cfg := DefaultConfig(2)
	cfg.Server.InitialState = StateActive
	c, err := New(cfg, sm, func(int) DPMPolicy { return fixedDPM{timeout: math.Inf(1)} })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := c.ReliabilityObj(); got != 0 {
		t.Fatalf("empty cluster reliability %v want 0", got)
	}
	// Load server 0 above the 0.8 hot-spot threshold.
	j := &Job{ID: 0, Arrival: 0, Duration: 1000, Req: Resources{0.95, 0.1, 0.1}, Server: -1}
	sm.Schedule(0, func() { c.Submit(j, 0) })
	sm.Run(1)
	r := c.ReliabilityObj()
	if r <= 1 {
		// co-location term alone is 1 (all jobs on one server); the
		// hot-spot term must add more.
		t.Fatalf("hot server reliability %v want > 1", r)
	}
}

func TestSnapshot(t *testing.T) {
	sm := sim.New()
	cfg := DefaultConfig(3)
	cfg.Server.InitialState = StateActive
	c, err := New(cfg, sm, func(int) DPMPolicy { return fixedDPM{timeout: math.Inf(1)} })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j1 := &Job{ID: 0, Arrival: 0, Duration: 100, Req: Resources{0.7, 0.1, 0.1}, Server: -1}
	j2 := &Job{ID: 1, Arrival: 0, Duration: 100, Req: Resources{0.7, 0.1, 0.1}, Server: -1}
	sm.Schedule(0, func() { c.Submit(j1, 1); c.Submit(j2, 1) })
	sm.Run(1)

	v := c.SnapshotInto(&View{})
	if v.M != 3 || v.Now != 1 {
		t.Fatalf("snapshot meta: M=%d Now=%v", v.M, v.Now)
	}
	if v.Util[1][0] != 0.7 {
		t.Fatalf("server 1 CPU util %v want 0.7", v.Util[1][0])
	}
	if v.QueueLen[1] != 1 || v.InSystem[1] != 2 {
		t.Fatalf("server 1 queue=%d insystem=%d want 1,2", v.QueueLen[1], v.InSystem[1])
	}
	if v.Pending[1][0] != 0.7 {
		t.Fatalf("server 1 pending CPU %v want 0.7", v.Pending[1][0])
	}
	if v.State[0] != StateActive {
		t.Fatalf("server 0 state %v", v.State[0])
	}
}

// Property: random workloads against random fixed-timeout DPMs always
// complete every job, never violate FCFS start-ordering per server, keep
// energy non-negative, and keep the incremental aggregates consistent.
func TestClusterRandomWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		sm := sim.New()
		m := 2 + g.Intn(3)
		cfg := DefaultConfig(m)
		timeout := []float64{0, 30, 90, math.Inf(1)}[g.Intn(4)]
		c, err := New(cfg, sm, func(int) DPMPolicy { return fixedDPM{timeout: timeout} })
		if err != nil {
			return false
		}
		n := 5 + g.Intn(40)
		jobs := make([]*Job, n)
		tNow := 0.0
		for i := range jobs {
			tNow += g.Exponential(0.05)
			jobs[i] = &Job{
				ID:       i,
				Arrival:  sim.Time(tNow),
				Duration: 10 + g.Float64()*500,
				Req:      Resources{0.05 + g.Float64()*0.5, 0.05 + g.Float64()*0.3, 0.05 + g.Float64()*0.2},
				Server:   -1,
			}
		}
		for _, j := range jobs {
			j := j
			srv := g.Intn(m)
			sm.Schedule(j.Arrival, func() { c.Submit(j, srv) })
		}
		sm.RunAll(1000000)
		c.InvariantCheck()
		if c.Completed() != int64(n) {
			return false
		}
		// Per-server FCFS: start times non-decreasing in submission order.
		lastStart := make(map[int]sim.Time)
		for _, j := range jobs {
			st, ok := j.StartedAt()
			if !ok {
				return false
			}
			if prev, seen := lastStart[j.Server]; seen && st < prev {
				return false
			}
			lastStart[j.Server] = st
			if j.Latency() < j.Duration-1e-9 {
				return false
			}
		}
		return c.TotalEnergyJoules(sm.Now()) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Per-server FCFS ordering above is necessary but not sufficient; also check
// that a server's energy equals power integrated over a piecewise profile in
// a deterministic two-job scenario with overlap.
func TestEnergyPiecewiseExact(t *testing.T) {
	sm := sim.New()
	cfg := DefaultServerConfig()
	cfg.InitialState = StateActive
	s := newTestServer(t, sm, cfg, fixedDPM{timeout: math.Inf(1)})

	j1 := &Job{ID: 1, Arrival: 0, Duration: 100, Req: Resources{0.5, 0.1, 0.1}, Server: -1}
	j2 := &Job{ID: 2, Arrival: 50, Duration: 100, Req: Resources{0.3, 0.1, 0.1}, Server: -1}
	sm.Schedule(0, func() { s.Submit(j1) })
	sm.Schedule(50, func() { s.Submit(j2) })
	sm.RunAll(100)

	pm := cfg.Power
	// [0,50): 0.5; [50,100): 0.8; [100,150): 0.3; then idle.
	want := 50*pm.Active(0.5) + 50*pm.Active(0.8) + 50*pm.Active(0.3) + 50*pm.Active(0)
	if got := s.EnergyJoules(200); math.Abs(got-want) > 1e-6 {
		t.Fatalf("energy %v want %v", got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(30).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []Config{
		{M: 0, Server: DefaultServerConfig(), HotSpotThreshold: 0.8},
		{M: 2, Server: DefaultServerConfig(), HotSpotThreshold: 0},
		{M: 2, Server: ServerConfig{Capacity: Resources{0, 1, 1},
			Power: DefaultPowerModel()}, HotSpotThreshold: 0.8},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Non-finite settings: each of these used to pass validation and then
	// panic mid-run (Schedule at NaN, power drift) or complete no job.
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(*Config){
		"Ton=NaN":              func(c *Config) { c.Server.TonSeconds = nan },
		"Ton=+Inf":             func(c *Config) { c.Server.TonSeconds = inf },
		"Toff=NaN":             func(c *Config) { c.Server.ToffSeconds = nan },
		"IdleW=NaN":            func(c *Config) { c.Server.Power.IdleW = nan },
		"PeakW=TransW=+Inf":    func(c *Config) { c.Server.Power.PeakW, c.Server.Power.TransitionW = inf, inf },
		"Capacity[0]=NaN":      func(c *Config) { c.Server.Capacity[0] = nan },
		"Capacity[0]=+Inf":     func(c *Config) { c.Server.Capacity[0] = inf },
		"HotSpotThreshold=NaN": func(c *Config) { c.HotSpotThreshold = nan },
		"class IdleW=NaN": func(c *Config) {
			c.Classes = []ServerClass{{Count: c.M, Power: PowerModel{IdleW: nan, PeakW: 145, TransitionW: 145}}}
		},
	} {
		c := DefaultConfig(6)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	sm := sim.New()
	if _, err := New(DefaultConfig(2), sm, nil); err == nil {
		t.Fatal("nil DPM factory accepted")
	}
	if _, err := New(DefaultConfig(2), sm, func(int) DPMPolicy { return nil }); err == nil {
		t.Fatal("nil DPM accepted")
	}
}

func TestJobAccessorPanics(t *testing.T) {
	j := mkJob(0, 0, 10, 0.1)
	for name, fn := range map[string]func(){
		"Latency":  func() { j.Latency() },
		"WaitTime": func() { j.WaitTime() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// fixedClock is a fault clock with constant delays.
type fixedClock struct{ fail, repair float64 }

func (c fixedClock) NextFailure() float64 { return c.fail }
func (c fixedClock) NextRepair() float64  { return c.repair }

// TestCrashEvictsInRunListOrder pins the order a crash evicts running jobs
// in: runJobs order, which is start order only until the first completion.
// Jobs 0, 1 and 2 start; 0 completes and the swap-remove moves job 2 into
// its slot; the crash then evicts [2, 1].
func TestCrashEvictsInRunListOrder(t *testing.T) {
	sm := sim.New()
	cfg := DefaultConfig(1)
	cfg.Server.InitialState = StateActive
	c, err := New(cfg, sm, func(int) DPMPolicy { return fixedDPM{timeout: math.Inf(1)} })
	if err != nil {
		t.Fatal(err)
	}
	c.EnableFaults(func(int) fault.Clock { return fixedClock{fail: 50, repair: 100} }, fault.KindCrash, 1, nil)
	var evicted []int
	c.OnInterrupt = func(_ sim.Time, j *Job) { evicted = append(evicted, j.ID) }
	for i, d := range []float64{10, 100, 100} {
		c.Submit(mkJob(i, 0, d, 0.2), 0)
	}
	sm.Run(50)
	if c.Completed() != 1 || c.DownServers() != 1 {
		t.Fatalf("at the crash: %d completed, %d down; want 1 and 1", c.Completed(), c.DownServers())
	}
	if len(evicted) != 2 || evicted[0] != 2 || evicted[1] != 1 {
		t.Fatalf("crash evicted %v, want [2 1]", evicted)
	}
}
