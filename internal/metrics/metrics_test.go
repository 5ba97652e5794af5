package metrics

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"testing/quick"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

type alwaysOn struct{}

func (alwaysOn) OnIdle(sim.Time, *cluster.Server) float64                { return math.Inf(1) }
func (alwaysOn) OnArrival(sim.Time, *cluster.Server, cluster.PowerState) {}
func (alwaysOn) Observe(sim.Time, float64, int)                          {}
func (alwaysOn) CheckpointStateless()                                    {}

func buildCluster(t *testing.T, m int) (*sim.Simulator, *cluster.Cluster) {
	t.Helper()
	sm := sim.New()
	cfg := cluster.DefaultConfig(m)
	cfg.Server.InitialState = cluster.StateActive
	c, err := cluster.New(cfg, sm, func(int) cluster.DPMPolicy { return alwaysOn{} })
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return sm, c
}

func TestCollectorAccumulatesAndCheckpoints(t *testing.T) {
	sm, c := buildCluster(t, 2)
	col := NewCollector(c, 2)
	c.OnJobDone = col.JobDone

	for i := 0; i < 4; i++ {
		j := &cluster.Job{
			ID: i, Arrival: sim.Time(i * 10), Duration: 100,
			Req: cluster.Resources{0.2, 0.1, 0.1}, Server: -1,
		}
		i := i
		sm.Schedule(j.Arrival, func() { c.Submit(j, i%2) })
	}
	sm.RunAll(1000)

	if col.Completed() != 4 {
		t.Fatalf("completed %d want 4", col.Completed())
	}
	if col.AccLatency() != 400 { // all run immediately, latency == duration
		t.Fatalf("acc latency %v want 400", col.AccLatency())
	}
	cps := col.Checkpoints()
	if len(cps) != 2 {
		t.Fatalf("checkpoints %d want 2", len(cps))
	}
	if cps[0].Jobs != 2 || cps[1].Jobs != 4 {
		t.Fatalf("checkpoint job counts %d,%d", cps[0].Jobs, cps[1].Jobs)
	}
	if cps[1].AccLatencySec != 400 {
		t.Fatalf("checkpoint acc latency %v", cps[1].AccLatencySec)
	}
	if cps[0].EnergykWh <= 0 || cps[1].EnergykWh < cps[0].EnergykWh {
		t.Fatalf("checkpoint energies %v, %v", cps[0].EnergykWh, cps[1].EnergykWh)
	}
}

func TestSummarize(t *testing.T) {
	sm, c := buildCluster(t, 2)
	col := NewCollector(c, 0)
	c.OnJobDone = col.JobDone

	j := &cluster.Job{ID: 0, Arrival: 0, Duration: 100,
		Req: cluster.Resources{0.5, 0.1, 0.1}, Server: -1}
	sm.Schedule(0, func() { c.Submit(j, 0) })
	sm.RunAll(100)
	sm.Run(200) // idle tail

	s := col.Summarize("test", sm.Now())
	if s.Jobs != 1 || s.M != 2 {
		t.Fatalf("summary meta: %+v", s)
	}
	if s.AvgLatencySec != 100 {
		t.Fatalf("avg latency %v want 100", s.AvgLatencySec)
	}
	// Energy: server0 100 s at P(0.5) + 100 s idle; server1 200 s idle.
	pm := cluster.DefaultPowerModel()
	wantJ := 100*pm.Active(0.5) + 100*pm.Active(0) + 200*pm.Active(0)
	if math.Abs(s.EnergykWh-wantJ/JoulesPerKWh) > 1e-9 {
		t.Fatalf("energy %v kWh want %v", s.EnergykWh, wantJ/JoulesPerKWh)
	}
	if math.Abs(s.AvgPowerW-wantJ/200) > 1e-9 {
		t.Fatalf("avg power %v want %v", s.AvgPowerW, wantJ/200)
	}
	if s.MeanWaitSec != 0 {
		t.Fatalf("mean wait %v want 0", s.MeanWaitSec)
	}
	if s.String() == "" {
		t.Fatal("String must render")
	}
}

// quantileSorted reads quantile p from an already-sorted sample slice at
// rank floor(p·(n-1)), the exact order statistic the latency histogram's
// quantiles approximate.
func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func TestQuantileSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	// Floor indexing: p95 of 5 elements is sorted[int(0.95*4)] = sorted[3].
	if got := quantileSorted(xs, 0.95); got != 4 {
		t.Fatalf("p95 %v want 4", got)
	}
	if got := quantileSorted(xs, 1); got != 5 {
		t.Fatalf("p100 %v want 5", got)
	}
	if got := quantileSorted(xs, 0); got != 1 {
		t.Fatalf("p0 %v want 1", got)
	}
	if !math.IsNaN(quantileSorted(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestParetoFront(t *testing.T) {
	pts := []TradeoffPoint{
		{Label: "a", AvgLatencySec: 1, AvgEnergyJPerJob: 10},
		{Label: "b", AvgLatencySec: 2, AvgEnergyJPerJob: 5}, // non-dominated
		{Label: "c", AvgLatencySec: 3, AvgEnergyJPerJob: 7}, // dominated by b
		{Label: "d", AvgLatencySec: 4, AvgEnergyJPerJob: 4}, // non-dominated
		{Label: "e", AvgLatencySec: 0.5, AvgEnergyJPerJob: 20},
	}
	front := ParetoFront(pts)
	want := []string{"e", "a", "b", "d"}
	if len(front) != len(want) {
		t.Fatalf("front size %d want %d: %+v", len(front), len(want), front)
	}
	for i, lbl := range want {
		if front[i].Label != lbl {
			t.Fatalf("front[%d] = %s want %s", i, front[i].Label, lbl)
		}
	}
}

// Property: every point not on the front is dominated by some front point.
func TestParetoFrontProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := mat.NewRNG(seed)
		n := 1 + g.Intn(30)
		pts := make([]TradeoffPoint, n)
		for i := range pts {
			pts[i] = TradeoffPoint{
				AvgLatencySec:    g.Float64() * 100,
				AvgEnergyJPerJob: g.Float64() * 100,
			}
		}
		front := ParetoFront(pts)
		onFront := func(p TradeoffPoint) bool {
			for _, q := range front {
				if q == p {
					return true
				}
			}
			return false
		}
		for _, p := range pts {
			if onFront(p) {
				continue
			}
			dominated := false
			for _, q := range front {
				if q.AvgLatencySec <= p.AvgLatencySec && q.AvgEnergyJPerJob <= p.AvgEnergyJPerJob {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		// Front must be strictly decreasing in energy as latency grows.
		for i := 1; i < len(front); i++ {
			if front[i].AvgEnergyJPerJob >= front[i-1].AvgEnergyJPerJob {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHypervolumeArea(t *testing.T) {
	pts := []TradeoffPoint{{AvgLatencySec: 1, AvgEnergyJPerJob: 1}}
	got := HypervolumeArea(pts, 3, 3)
	if math.Abs(got-4) > 1e-12 { // (3-1)*(3-1)
		t.Fatalf("single-point hypervolume %v want 4", got)
	}
	// A dominating set has larger hypervolume.
	better := []TradeoffPoint{
		{AvgLatencySec: 0.5, AvgEnergyJPerJob: 1},
		{AvgLatencySec: 1, AvgEnergyJPerJob: 0.5},
	}
	if HypervolumeArea(better, 3, 3) <= got {
		t.Fatal("dominating front must have larger hypervolume")
	}
	// Points outside the reference box contribute nothing.
	if HypervolumeArea([]TradeoffPoint{{AvgLatencySec: 5, AvgEnergyJPerJob: 5}}, 3, 3) != 0 {
		t.Fatal("out-of-box point contributed area")
	}
}

func TestNewCollectorPanics(t *testing.T) {
	_, c := buildCluster(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCollector(c, -1)
}

// TestJobDoneAllocatesOnce pins the collection path: a fresh collector's
// first 10^5 completions allocate once, the fixed histogram set on the first
// completion, with no pre-sizing, and the next 10^5 allocate nothing; the
// latency histogram they fill reads P50/P95/P99 within 2^-7 of the exact
// order statistics.
func TestJobDoneAllocatesOnce(t *testing.T) {
	sm, c := buildCluster(t, 4)
	var done []*cluster.Job
	c.OnJobDone = func(_ sim.Time, j *cluster.Job) { done = append(done, j) }
	g := mat.NewRNG(29)
	for i := 0; i < 1000; i++ {
		j := &cluster.Job{
			ID: i, Arrival: sim.Time(g.Float64() * 5000), Duration: 60 + g.Exponential(1)*600,
			Req: cluster.Resources{0.3, 0.1, 0.1}, Server: -1,
		}
		sm.Schedule(j.Arrival, func() { c.Submit(j, j.ID%4) })
	}
	sm.RunAll(1 << 20)
	if len(done) != 1000 {
		t.Fatalf("precondition: %d of 1000 jobs completed", len(done))
	}

	const n = 100000
	cols := []*Collector{NewCollector(c, 0), NewCollector(c, 0)}
	run := 0
	record := func() {
		col := cols[run%2]
		run++
		for i := 0; i < n; i++ {
			col.JobDone(sm.Now(), done[i%len(done)])
		}
	}
	// AllocsPerRun counts every malloc in the process. A GC cycle that
	// starts inside the window wakes runtime goroutines that malloc (the
	// unique package's map cleanup, a sudog in gcMarkDone, the scavenger's
	// timer heap), and on a loaded machine the test goroutine is preempted
	// and they run inside the window. So no cycle may start there: the pacer
	// is off while measuring, and a forced cycle first lets the last one's
	// work finish.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	// AllocsPerRun spends its warm-up call on cols[0]; the measured call is
	// cols[1]'s first n completions, and in the second measurement its
	// next n.
	if allocs := testing.AllocsPerRun(1, record); allocs != 1 {
		t.Fatalf("a fresh collector's first %d completions allocate %v times, want 1", n, allocs)
	}
	run = 0
	if allocs := testing.AllocsPerRun(1, record); allocs != 0 {
		t.Fatalf("a warm collector's next %d completions allocate %v times, want 0", n, allocs)
	}

	lat := make([]float64, 2*n)
	for i := range lat {
		lat[i] = done[i%len(done)].Latency()
	}
	sort.Float64s(lat)
	h := cols[1].Sketches().Latency()
	if h.Count() != 2*n {
		t.Fatalf("latency histogram holds %d samples, want %d", h.Count(), 2*n)
	}
	for _, p := range []float64{0.50, 0.95, 0.99} {
		want := quantileSorted(lat, p)
		if got := h.Quantile(p); math.Abs(got-want) > want/128 {
			t.Errorf("P%v = %v, exact %v: off by more than 2^-7", p*100, got, want)
		}
	}
}
