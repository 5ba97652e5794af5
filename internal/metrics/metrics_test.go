package metrics

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
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

// quantileSorted reads quantile p from an already-sorted sample slice: the
// reference exactQuantiles must match.
func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[quantileIndex(len(sorted), p)]
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

// medianOf3Killer builds an input that drives introselect, selecting the
// median, into its sort fallback. It runs McIlroy's adversary ("A Killer
// Adversary for Quicksort", 1999) against a replica of introselect's
// comparisons and swaps: elements start as "gas", above every frozen value,
// and a comparison of two gas elements freezes one of them to the next
// smallest value, preferring the pivot candidate. Every pivot then turns out
// small, and each round peels off only a few elements below the median.
func medianOf3Killer(n int) []float64 {
	const gas = math.MaxInt
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, 0
	less := func(x, y int) bool {
		if val[x] == gas && val[y] == gas {
			if x == candidate {
				val[x] = solid
			} else {
				val[y] = solid
			}
			solid++
		}
		if val[x] == gas {
			candidate = x
		} else if val[y] == gas {
			candidate = y
		}
		return val[x] < val[y]
	}
	a := make([]int, n) // a[i] is the element that started at index i
	for i := range a {
		a[i] = i
	}
	k := quantileIndex(n, 0.50)
	lo, hi := 0, n-1
	for rounds := 2 * bits.Len(uint(n-1)); lo < hi && rounds > 0; rounds-- {
		mid := lo + (hi-lo)/2
		if less(a[mid], a[lo]) {
			a[lo], a[mid] = a[mid], a[lo]
		}
		if less(a[hi], a[mid]) {
			a[mid], a[hi] = a[hi], a[mid]
			if less(a[mid], a[lo]) {
				a[lo], a[mid] = a[mid], a[lo]
			}
		}
		x := a[mid]
		i, j := lo, hi
		for i <= j {
			for less(a[i], x) {
				i++
			}
			for less(x, a[j]) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	out := make([]float64, n)
	for i, v := range val {
		if v == gas {
			v = n // still gas: above every frozen value, all equal
		}
		out[i] = float64(v)
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestQuantilesBySelectionMatchSort(t *testing.T) {
	check := func(name string, xs []float64) {
		t.Helper()
		orig := slices.Clone(xs)
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		p50, p95, p99 := exactQuantiles(xs)
		for _, q := range []struct {
			p   float64
			got float64
		}{{0.50, p50}, {0.95, p95}, {0.99, p99}} {
			want := quantileSorted(sorted, q.p)
			if !sameBits(q.got, want) {
				t.Fatalf("%s (n=%d): P%v = %v, sorted copy reads %v", name, len(xs), q.p*100, q.got, want)
			}
		}
		if !slices.EqualFunc(xs, orig, sameBits) {
			t.Fatalf("%s (n=%d): input reordered", name, len(xs))
		}
	}

	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(1<<r.Intn(18)) // log-uniform-ish sizes in [1, 2^17]
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.ExpFloat64() * 100
		}
		check("random", xs)
	}

	for _, n := range []int{1, 2, 3, 10, 101, 1000, 4097, 1 << 17} {
		dup := make([]float64, n)
		equal := make([]float64, n)
		asc := make([]float64, n)
		desc := make([]float64, n)
		pipe := make([]float64, n)
		nans := make([]float64, n)
		for i := range dup {
			dup[i] = float64(r.Intn(4))
			equal[i] = 7
			asc[i] = float64(i)
			desc[i] = float64(n - i)
			pipe[i] = float64(min(i, n-1-i))
			nans[i] = r.Float64() + 1
			if r.Intn(8) == 0 {
				nans[i] = math.NaN()
			}
		}
		check("duplicate-heavy", dup)
		check("all-equal", equal)
		check("sorted", asc)
		check("reversed", desc)
		check("organ-pipe", pipe)
		check("with NaN", nans)
	}

	// The adversarial input must really reach the sort fallback, and still
	// read the same quantiles.
	killer := medianOf3Killer(1 << 12)
	if !introselect(slices.Clone(killer), quantileIndex(len(killer), 0.50)) {
		t.Fatal("median-of-3 killer did not reach the sort fallback")
	}
	check("median-of-3 killer", killer)

	// Summarize selects on a copy: the retained slice's order is snapshot
	// content and must not change.
	sm, c := buildCluster(t, 2)
	col := NewCollector(c, 0)
	c.OnJobDone = col.JobDone
	sm.Schedule(0, func() {
		c.Submit(&cluster.Job{ID: 0, Arrival: 0, Duration: 10,
			Req: cluster.Resources{0.5, 0.1, 0.1}, Server: -1}, 0)
	})
	sm.RunAll(100)
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = r.ExpFloat64()
	}
	col.latencies = slices.Clone(lat)
	s := col.Summarize("order", sm.Now())
	if !slices.Equal(col.latencies, lat) {
		t.Fatal("Summarize reordered the retained latencies")
	}
	sorted := slices.Clone(lat)
	sort.Float64s(sorted)
	if s.P50LatencySec != quantileSorted(sorted, 0.50) || s.P99LatencySec != quantileSorted(sorted, 0.99) {
		t.Fatalf("Summarize quantiles %v/%v disagree with the sorted copy", s.P50LatencySec, s.P99LatencySec)
	}
}
