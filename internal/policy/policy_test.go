package policy

import (
	"math"
	"testing"

	"hierdrl/internal/cluster"
	"hierdrl/internal/fault"
	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

func emptyView(m int) *cluster.View {
	v := &cluster.View{
		Now:      sim.Time(0),
		M:        m,
		Util:     make([]cluster.Resources, m),
		Pending:  make([]cluster.Resources, m),
		QueueLen: make([]int, m),
		InSystem: make([]int, m),
		State:    make([]cluster.PowerState, m),
	}
	for i := range v.State {
		v.State[i] = cluster.StateActive
	}
	return v
}

func testJob(cpu float64) *cluster.Job {
	return &cluster.Job{ID: 0, Duration: 100, Req: cluster.Resources{cpu, cpu / 2, cpu / 4}, Server: -1}
}

func TestRoundRobinCycles(t *testing.T) {
	rr := NewRoundRobin()
	v := emptyView(3)
	got := []int{}
	for i := 0; i < 7; i++ {
		got = append(got, rr.Allocate(testJob(0.1), v))
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v want %v", got, want)
		}
	}
}

func TestRandomInRange(t *testing.T) {
	r := NewRandom(mat.NewRNG(1))
	v := emptyView(5)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		s := r.Allocate(testJob(0.1), v)
		if s < 0 || s >= 5 {
			t.Fatalf("out of range %d", s)
		}
		seen[s] = true
	}
	if len(seen) != 5 {
		t.Fatalf("random allocator only hit %d/5 servers", len(seen))
	}
}

func TestLeastLoadedPicksEmptiest(t *testing.T) {
	ll := NewLeastLoaded()
	v := emptyView(3)
	v.Util[0] = cluster.Resources{0.5, 0.1, 0.1}
	v.Util[1] = cluster.Resources{0.1, 0.1, 0.1}
	v.Util[2] = cluster.Resources{0.3, 0.1, 0.1}
	if got := ll.Allocate(testJob(0.1), v); got != 1 {
		t.Fatalf("least-loaded chose %d want 1", got)
	}
	// Queued demand counts too.
	v.Pending[1] = cluster.Resources{0.6, 0, 0}
	if got := ll.Allocate(testJob(0.1), v); got != 2 {
		t.Fatalf("least-loaded with pending chose %d want 2", got)
	}
}

func TestPackFitConsolidates(t *testing.T) {
	pf, err := NewPackFit(0.05)
	if err != nil {
		t.Fatalf("NewPackFit: %v", err)
	}
	v := emptyView(3)
	v.Util[0] = cluster.Resources{0.2, 0.1, 0.1}
	v.Util[2] = cluster.Resources{0.6, 0.2, 0.1}
	// Job fits on server 2 (0.6+0.3 <= 0.95): consolidation picks the
	// fuller server.
	if got := pf.Allocate(testJob(0.3), v); got != 2 {
		t.Fatalf("pack-fit chose %d want 2", got)
	}
	// A big job that only fits on the emptier awake servers.
	if got := pf.Allocate(testJob(0.5), v); got != 0 {
		t.Fatalf("pack-fit big job chose %d want 0", got)
	}
}

func TestPackFitAvoidsSleepingUnlessNeeded(t *testing.T) {
	pf, _ := NewPackFit(0.05)
	v := emptyView(2)
	v.State[1] = cluster.StateSleep
	v.Util[0] = cluster.Resources{0.3, 0.1, 0.1}
	if got := pf.Allocate(testJob(0.2), v); got != 0 {
		t.Fatalf("pack-fit woke a sleeping server unnecessarily (chose %d)", got)
	}
	// Now server 0 is too full: must fall back to the sleeping machine.
	v.Util[0] = cluster.Resources{0.9, 0.1, 0.1}
	if got := pf.Allocate(testJob(0.2), v); got != 1 {
		t.Fatalf("pack-fit overflow chose %d want 1", got)
	}
}

func TestPackFitSkipsShuttingDown(t *testing.T) {
	pf, _ := NewPackFit(0.05)
	v := emptyView(2)
	v.State[0] = cluster.StateShuttingDown
	if got := pf.Allocate(testJob(0.2), v); got != 1 {
		t.Fatalf("pack-fit chose a shutting-down server (%d)", got)
	}
}

func TestPackFitValidation(t *testing.T) {
	if _, err := NewPackFit(-0.1); err == nil {
		t.Fatal("negative headroom accepted")
	}
	if _, err := NewPackFit(1); err == nil {
		t.Fatal("headroom 1 accepted")
	}
}

func TestAllocatorsStayInRange(t *testing.T) {
	rng := mat.NewRNG(3)
	pf, _ := NewPackFit(0.05)
	allocs := []Allocator{NewRoundRobin(), NewRandom(rng.Split()), NewLeastLoaded(), pf}
	for _, a := range allocs {
		for trial := 0; trial < 100; trial++ {
			m := 1 + rng.Intn(6)
			v := emptyView(m)
			for i := 0; i < m; i++ {
				v.Util[i] = cluster.Resources{rng.Float64(), rng.Float64(), rng.Float64()}
				v.State[i] = []cluster.PowerState{
					cluster.StateSleep, cluster.StateWaking,
					cluster.StateActive, cluster.StateShuttingDown,
				}[rng.Intn(4)]
			}
			got := a.Allocate(testJob(0.1+rng.Float64()*0.4), v)
			if got < 0 || got >= m {
				t.Fatalf("%T returned %d for M=%d", a, got, m)
			}
		}
	}
}

// TestLeastCommittedMatchesLeastLoadedScan pins the engine's fastLL rewrite:
// cluster.LeastCommitted (the incremental load index) must return exactly
// the server LeastLoaded.Allocate picks from a fresh snapshot, at every
// decision point of a live workload — including ties (lowest index) and the
// all-overcommitted >=2.0 sentinel fallback.
func TestLeastCommittedMatchesLeastLoadedScan(t *testing.T) {
	sm := sim.New()
	cfg := cluster.DefaultConfig(9)
	cfg.Server.InitialState = cluster.StateActive
	cl, err := cluster.New(cfg, sm, func(int) cluster.DPMPolicy { return alwaysOnDPM{} })
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableLoadIndex()
	ll := NewLeastLoaded()
	rng := mat.NewRNG(21)
	var v cluster.View
	arrival := 0.0
	for i := 0; i < 400; i++ {
		arrival += rng.Exponential(0.7)
		sm.RunBefore(sim.Time(arrival))
		cl.SnapshotInto(&v)
		want := ll.Allocate(nil, &v)
		if got := cl.LeastCommitted(); got != want {
			t.Fatalf("step %d: LeastCommitted=%d, scan=%d", i, got, want)
		}
		// Oversized bursts periodically push every server past the 2.0
		// sentinel, exercising the fallback branch.
		cpu := 0.05 + 0.4*rng.Float64()
		if i%50 == 49 {
			cpu = 0.9
		}
		sm.AdvanceTo(sim.Time(arrival))
		cl.Submit(&cluster.Job{
			ID: i, Arrival: sim.Time(arrival), Duration: 30 + rng.Float64()*200,
			Req: cluster.Resources{cpu, cpu * 0.8, cpu * 0.5}, Server: -1,
		}, want)
	}
	cl.InvariantCheck()
}

// TestLeastCommittedSkipsDrainingServers drives the equivalence test's
// workload under rolling maintenance windows. The View has no draining flag,
// so LeastLoaded's scan can pick a draining server there and the two picks
// are no longer the same; the index scores a draining server +Inf, so its
// pick accepts work whenever some server that accepts work has a committed
// load below the 2.0 sentinel.
func TestLeastCommittedSkipsDrainingServers(t *testing.T) {
	sm := sim.New()
	cfg := cluster.DefaultConfig(9)
	cfg.Server.InitialState = cluster.StateActive
	cl, err := cluster.New(cfg, sm, func(int) cluster.DPMPolicy { return alwaysOnDPM{} })
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableLoadIndex()
	drain, err := fault.DrainClocks(400, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	cl.EnableFaults(drain, fault.KindDrain, 1, nil)
	rng := mat.NewRNG(21)
	arrival := 0.0
	drainingSeen := 0
	for i := 0; i < 2000; i++ {
		arrival += rng.Exponential(0.7)
		sm.RunBefore(sim.Time(arrival))
		open := false
		for k := 0; k < cl.M(); k++ {
			if cl.Server(k).Draining() {
				drainingSeen++
			}
			if cl.Accepting(k) && cl.Server(k).CommittedLoad() < 2.0 {
				open = true
			}
		}
		pick := cl.LeastCommitted()
		if open && !cl.Accepting(pick) {
			t.Fatalf("step %d: LeastCommitted=%d, which accepts no work (down %v, draining %v)",
				i, pick, cl.Down(pick), cl.Server(pick).Draining())
		}
		to := cl.NextUp(pick)
		if to < 0 {
			continue
		}
		cpu := 0.05 + 0.4*rng.Float64()
		if i%50 == 49 {
			cpu = 0.9
		}
		sm.AdvanceTo(sim.Time(arrival))
		cl.Submit(&cluster.Job{
			ID: i, Arrival: sim.Time(arrival), Duration: 30 + rng.Float64()*200,
			Req: cluster.Resources{cpu, cpu * 0.8, cpu * 0.5}, Server: -1,
		}, to)
	}
	if drainingSeen == 0 {
		t.Fatal("no decision saw a draining server; test is vacuous")
	}
	cl.InvariantCheck()
}

// alwaysOnDPM keeps servers active for the load-index equivalence test.
type alwaysOnDPM struct{}

func (alwaysOnDPM) OnIdle(sim.Time, *cluster.Server) float64                { return math.Inf(1) }
func (alwaysOnDPM) OnArrival(sim.Time, *cluster.Server, cluster.PowerState) {}
func (alwaysOnDPM) Observe(sim.Time, float64, int)                          {}
