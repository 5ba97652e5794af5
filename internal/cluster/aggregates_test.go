package cluster

import (
	"math"
	"testing"

	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

type alwaysOnTestDPM struct{}

func (alwaysOnTestDPM) OnIdle(sim.Time, *Server) float64        { return math.Inf(1) }
func (alwaysOnTestDPM) OnArrival(sim.Time, *Server, PowerState) {}
func (alwaysOnTestDPM) Observe(sim.Time, float64, int)          {}

// adHocTestDPM sleeps the instant a server idles (transition-stream tests).
type adHocTestDPM struct{}

func (adHocTestDPM) OnIdle(sim.Time, *Server) float64        { return 0 }
func (adHocTestDPM) OnArrival(sim.Time, *Server, PowerState) {}
func (adHocTestDPM) Observe(sim.Time, float64, int)          {}

func newActiveForTest(t *testing.T, m int, dpm DPMPolicy) (*Cluster, *sim.Simulator) {
	t.Helper()
	sm := sim.New()
	cfg := DefaultConfig(m)
	cfg.Server.InitialState = StateActive
	c, err := New(cfg, sm, func(int) DPMPolicy { return dpm })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, sm
}

// submitRandom submits one random job at the next exponential arrival. The
// job is dispatched by a priority-lane event at its arrival, as the session's
// pump dispatches, so it precedes every same-instant lane event.
func submitRandom(c *Cluster, sm *sim.Simulator, rng *mat.RNG, id int, arrival *float64) {
	*arrival += rng.Exponential(0.5)
	target := rng.Intn(c.M())
	cpu := 0.05 + 0.3*rng.Float64()
	j := &Job{
		ID:       id,
		Arrival:  sim.Time(*arrival),
		Duration: 1 + rng.Float64()*20,
		Req:      Resources{cpu, cpu * 0.8, cpu * 0.5},
		Server:   -1,
	}
	sm.SchedulePriorityArg(j.Arrival, func(any) { c.Submit(j, target) }, nil)
	sm.Run(j.Arrival)
}

// TestNewBuildsServersInOrderOnOneLane: the cluster builds every server on
// its one event lane, invokes the DPM factory once per server in ascending
// order (the RNG split order every factory relies on), and rejects a missing
// lane.
func TestNewBuildsServersInOrderOnOneLane(t *testing.T) {
	sm := sim.New()
	var order []int
	c, err := New(DefaultConfig(10), sm, func(id int) DPMPolicy {
		order = append(order, id)
		return alwaysOnTestDPM{}
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.sm != sm {
		t.Fatal("the cluster is not on its construction lane")
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("factory order %v, want ascending", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("factory called %d times, want 10", len(order))
	}
	for i := 0; i < c.M(); i++ {
		if c.Server(i).sm != sm {
			t.Fatalf("server %d is not on the cluster's lane", i)
		}
	}
	if _, err := New(DefaultConfig(2), nil, func(int) DPMPolicy { return alwaysOnTestDPM{} }); err == nil {
		t.Fatal("New with a nil lane did not fail")
	}
}

// TestAggregatesMatchRecompute drives a random workload to completion
// and asserts every incremental aggregate equals a full recompute from live
// server state: counters exactly, the reliability objective and the load
// index's argmin bit for bit, the power accumulator to tolerance (it is an
// incremental FP sum in a different association order).
func TestAggregatesMatchRecompute(t *testing.T) {
	c, sm := newActiveForTest(t, 13, alwaysOnTestDPM{})
	c.EnableLoadIndex()
	rng := mat.NewRNG(42)
	arrival := 0.0
	for id := 0; id < 400; id++ {
		submitRandom(c, sm, rng, id, &arrival)
		if id%50 == 0 {
			c.InvariantCheck()
		}
	}
	c.InvariantCheck()
	sm.RunAll(1 << 20)
	c.InvariantCheck()

	if got := c.Completed(); got != 400 {
		t.Fatalf("completed %d, want 400", got)
	}
	jobs := 0
	var power float64
	for _, s := range c.servers {
		jobs += s.JobsInSystem()
		power += s.Power()
	}
	if c.JobsInSystem() != jobs || jobs != 0 {
		t.Fatalf("jobs in system %d, recomputed %d", c.JobsInSystem(), jobs)
	}
	if got := c.TotalPower(); math.Abs(got-power) > 1e-9*(1+power) {
		t.Fatalf("power %v, recomputed %v", got, power)
	}
	if a, b := c.ReliabilityObj(), c.reliabilityRecompute(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("reliability %v, recomputed %v", a, b)
	}
}

// TestOnChangeAggregatesMatchRecompute: the OnChange feed the DRL reward
// integrates is exact at every event — at each callback the incremental jobs
// counter, the reliability objective (bit for bit) and the power accumulator
// (to tolerance) equal a full recompute from live server state.
func TestOnChangeAggregatesMatchRecompute(t *testing.T) {
	c, sm := newActiveForTest(t, 12, alwaysOnTestDPM{})
	changes := 0
	c.OnChange = func(sim.Time) {
		changes++
		jobs := 0
		var power float64
		for _, s := range c.servers {
			jobs += s.JobsInSystem()
			power += s.Power()
		}
		if c.JobsInSystem() != jobs {
			t.Fatalf("change %d: jobs %d, recomputed %d", changes, c.JobsInSystem(), jobs)
		}
		if got := c.TotalPower(); math.Abs(got-power) > 1e-9*(1+power) {
			t.Fatalf("change %d: power %v, recomputed %v", changes, got, power)
		}
		if a, b := c.ReliabilityObj(), c.reliabilityRecompute(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("change %d: reliability %v, recomputed %v", changes, a, b)
		}
	}
	rng := mat.NewRNG(7)
	arrival := 0.0
	for id := 0; id < 300; id++ {
		submitRandom(c, sm, rng, id, &arrival)
	}
	sm.RunAll(1 << 20)
	if changes < 600 {
		t.Fatalf("only %d change callbacks for 300 jobs", changes)
	}
}

// TestCallbacksInSimulatedTimeOrder: completions, changes and transitions reach their
// callbacks synchronously, in simulated-time order, as the events fire.
func TestCallbacksInSimulatedTimeOrder(t *testing.T) {
	// Immediate-sleep DPM: every completion triggers shutdown transitions,
	// so the transition stream has content to order.
	c, sm := newActiveForTest(t, 4, adHocTestDPM{})
	var order []int
	var doneTimes, changeTimes, transTimes []sim.Time
	c.OnJobDone = func(tm sim.Time, j *Job) {
		order = append(order, j.ID)
		doneTimes = append(doneTimes, tm)
	}
	c.OnChange = func(tm sim.Time) { changeTimes = append(changeTimes, tm) }
	c.OnTransition = func(tm sim.Time, _ int, _, _ PowerState) { transTimes = append(transTimes, tm) }
	// One job per server, durations chosen so completion order differs from
	// server order: server 3 finishes first, then 1, then 2, then 0.
	durations := []float64{40, 20, 30, 10}
	for i, d := range durations {
		c.Submit(&Job{ID: i, Arrival: 0, Duration: d, Req: Resources{0.1, 0.1, 0.1}, Server: -1}, i)
	}
	sm.RunAll(1 << 20)
	want := []int{3, 1, 2, 0}
	if len(order) != len(want) {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
	for name, ts := range map[string][]sim.Time{"completion": doneTimes, "change": changeTimes, "transition": transTimes} {
		if len(ts) == 0 {
			t.Fatalf("no %s callbacks", name)
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1] {
				t.Fatalf("%s times not monotone: %v", name, ts)
			}
		}
	}
}

// TestLoadIndexProperty cross-checks the tournament tree against a linear
// scan (with the scan's lowest-index tie preference) under random updates.
func TestLoadIndexProperty(t *testing.T) {
	rng := mat.NewRNG(99)
	for _, n := range []int{1, 2, 3, 7, 8, 64, 100} {
		x := newLoadIndex(n)
		loads := make([]float64, n)
		for step := 0; step < 500; step++ {
			i := rng.Intn(n)
			v := float64(rng.Intn(8)) / 4 // coarse grid to force ties
			loads[i] = v
			x.Update(i, v)
			best, bestLoad := 0, loads[0]
			for k := 1; k < n; k++ {
				if loads[k] < bestLoad {
					best, bestLoad = k, loads[k]
				}
			}
			gotIdx, gotLoad := x.ArgMin()
			if gotIdx != best || gotLoad != bestLoad {
				t.Fatalf("n=%d step=%d: ArgMin=(%d,%v), scan=(%d,%v)", n, step, gotIdx, gotLoad, best, bestLoad)
			}
		}
	}
}
