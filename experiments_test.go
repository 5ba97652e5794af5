package hierdrl

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

func tinyScale(m int) Scale {
	return Scale{Jobs: 400, WarmupJobs: 150, Seed: 3, ClusterM: m}
}

func TestScaleValidate(t *testing.T) {
	if err := FullScale(30).Validate(); err != nil {
		t.Fatalf("FullScale invalid: %v", err)
	}
	if err := BenchScale(40).Validate(); err != nil {
		t.Fatalf("BenchScale invalid: %v", err)
	}
	bad := []Scale{
		{Jobs: 0, ClusterM: 30},
		{Jobs: 10, WarmupJobs: -1, ClusterM: 30},
		{Jobs: 10, ClusterM: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad scale %d accepted", i)
		}
	}
}

func TestRunComparisonTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("three end-to-end runs; skip with -short")
	}
	cmp, err := RunComparison(4, tinyScale(4), 100)
	if err != nil {
		t.Fatalf("RunComparison: %v", err)
	}
	rows := cmp.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows %d want 3", len(rows))
	}
	names := []string{"round-robin", "drl-only", "hierarchical"}
	for i, s := range rows {
		if s.Policy != names[i] {
			t.Fatalf("row %d policy %q want %q", i, s.Policy, names[i])
		}
		if s.Jobs != 400 {
			t.Fatalf("%s completed %d jobs want 400", s.Policy, s.Jobs)
		}
		if s.EnergykWh <= 0 {
			t.Fatalf("%s energy %v", s.Policy, s.EnergykWh)
		}
	}
	if len(cmp.RoundRobin.Checkpoints) == 0 {
		t.Fatal("missing checkpoints")
	}
}

func TestRunTradeoffTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("many end-to-end runs; skip with -short")
	}
	sc := tinyScale(4)
	curves, err := RunTradeoff(4, sc, []float64{0.3, 0.7})
	if err != nil {
		t.Fatalf("RunTradeoff: %v", err)
	}
	for _, pts := range curves.All() {
		if len(pts) != 2 {
			t.Fatalf("curve has %d points want 2", len(pts))
		}
		for _, p := range pts {
			if p.AvgLatencySec <= 0 || p.AvgEnergyJPerJob <= 0 {
				t.Fatalf("degenerate point %+v", p)
			}
		}
	}
	// Validation paths.
	if _, err := RunTradeoff(4, sc, nil); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := RunTradeoff(4, sc, []float64{1.5}); err == nil {
		t.Fatal("lambda out of range accepted")
	}
}

func TestRunPredictorComparisonTiny(t *testing.T) {
	scores, err := RunPredictorComparison(300, 1)
	if err != nil {
		t.Fatalf("RunPredictorComparison: %v", err)
	}
	if len(scores) != 4 {
		t.Fatalf("scores %d want 4", len(scores))
	}
	for _, s := range scores {
		if s.Samples == 0 {
			t.Fatalf("%s scored no samples", s.Name)
		}
		if math.IsNaN(s.RMSELog) || s.RMSELog <= 0 {
			t.Fatalf("%s RMSE %v", s.Name, s.RMSELog)
		}
	}
	if _, err := RunPredictorComparison(10, 1); err == nil {
		t.Fatal("tiny stream accepted")
	}
}

func TestRunAblationTiny(t *testing.T) {
	results, err := RunAblation(6, 30, []int{2, 3}, 1)
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	if len(results) != 6 { // 2 K values x 3 variants
		t.Fatalf("results %d want 6", len(results))
	}
	byKey := map[string]AblationResult{}
	for _, r := range results {
		if r.FinalLoss < 0 || math.IsNaN(r.FinalLoss) {
			t.Fatalf("%s K=%d loss %v", r.Variant, r.K, r.FinalLoss)
		}
		if r.Params <= 0 {
			t.Fatalf("%s K=%d params %d", r.Variant, r.K, r.Params)
		}
		byKey[r.Variant+string(rune('0'+r.K))] = r
	}
	// Weight sharing claim 2 of Sec. V-A: fewer parameters.
	if byKey["full2"].Params >= byKey["no-weight-sharing2"].Params {
		t.Fatal("weight sharing did not reduce parameter count")
	}
	// Error paths.
	if _, err := RunAblation(6, 0, []int{2}, 1); err == nil {
		t.Fatal("zero steps accepted")
	}
	if _, err := RunAblation(6, 10, []int{4}, 1); err == nil {
		t.Fatal("non-divisor K accepted")
	}
}

func TestParetoAndHypervolumeExports(t *testing.T) {
	pts := []TradeoffPoint{
		{Label: "a", AvgLatencySec: 1, AvgEnergyJPerJob: 3},
		{Label: "b", AvgLatencySec: 2, AvgEnergyJPerJob: 1},
		{Label: "c", AvgLatencySec: 2, AvgEnergyJPerJob: 5},
	}
	front := ParetoFrontOf(pts)
	if len(front) != 2 {
		t.Fatalf("front %d want 2", len(front))
	}
	if hv := HypervolumeOf(pts, 10, 10); hv <= 0 {
		t.Fatalf("hypervolume %v", hv)
	}
}

func TestRunFaultSweepTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("eight end-to-end fault runs; skip with -short")
	}
	mttfs := []float64{2000, 20000}
	pts, err := RunFaultSweep(4, tinyScale(4), mttfs)
	if err != nil {
		t.Fatalf("RunFaultSweep: %v", err)
	}
	allocs := []AllocPolicy{AllocRoundRobin, AllocRandom, AllocLeastLoaded, AllocPackFit}
	if len(pts) != len(allocs)*len(mttfs) {
		t.Fatalf("points %d want %d", len(pts), len(allocs)*len(mttfs))
	}
	var totalFailures int64
	for i, p := range pts {
		if want := allocs[i/len(mttfs)]; p.Alloc != want {
			t.Fatalf("point %d alloc %q want %q (policy-major order)", i, p.Alloc, want)
		}
		if want := mttfs[i%len(mttfs)]; p.MTTFSec != want {
			t.Fatalf("point %d mttf %v want %v", i, p.MTTFSec, want)
		}
		if !(p.Summary.Availability > 0 && p.Summary.Availability <= 1) {
			t.Fatalf("point %d availability %v", i, p.Summary.Availability)
		}
		if p.Summary.EnergykWh <= 0 {
			t.Fatalf("point %d energy %v", i, p.Summary.EnergykWh)
		}
		totalFailures += p.Summary.Failures
	}
	if totalFailures == 0 {
		t.Fatal("no failures across the whole sweep; MTTFs too gentle for the test to bite")
	}

	if _, err := RunFaultSweep(4, tinyScale(4), nil); err == nil {
		t.Fatal("empty MTTF sweep accepted")
	}
	if _, err := RunFaultSweep(4, tinyScale(4), []float64{-1}); err == nil {
		t.Fatal("negative MTTF accepted")
	}
}

// summaryBitsAll flattens every numeric Summary field to its bit pattern, so
// two summaries compare bitwise across all measurements (NaN-safe, -0-aware).
func summaryBitsAll(s Summary) []uint64 {
	var out []uint64
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			out = append(out, math.Float64bits(f.Float()))
		case reflect.Int, reflect.Int64:
			out = append(out, uint64(f.Int()))
		}
	}
	return out
}

// TestRunFaultMatrixTiny pins the fault-class matrix harness: cells come back
// policy-major in the documented model order, and each cell's Summary is
// bitwise the Summary of a direct Run of the same configuration.
func TestRunFaultMatrixTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("32 end-to-end fault runs; skip with -short")
	}
	m, sc := 12, tinyScale(12)
	pts, err := RunFaultMatrix(m, sc)
	if err != nil {
		t.Fatalf("RunFaultMatrix: %v", err)
	}
	allocs := []AllocPolicy{AllocRoundRobin, AllocRandom, AllocLeastLoaded, AllocPackFit}
	models := []FaultKind{FaultExpCrash, FaultCorrelatedCrash, FaultDegrade, FaultDrain}
	if len(pts) != len(allocs)*len(models) {
		t.Fatalf("points %d want %d", len(pts), len(allocs)*len(models))
	}
	tr := sc.trace(0)
	for i, p := range pts {
		alloc, model := allocs[i/len(models)], models[i%len(models)]
		if p.Alloc != alloc || p.Faults != model {
			t.Fatalf("point %d is %s/%s want %s/%s (policy-major order)", i, p.Alloc, p.Faults, alloc, model)
		}
		cfg := Config{
			Name: fmt.Sprintf("%s/%s", alloc, model), M: m, Seed: sc.Seed, Alloc: alloc,
			DPM: DPMFixedTimeout, FixedTimeoutSec: 60,
			Faults: model, MTTFSec: 30000, MTTRSec: 600, Retry: RetryBackoff,
		}
		if model == FaultCorrelatedCrash {
			cfg.Domains = EqualDomains(m/6, m)
		}
		want := runOrFatal(t, cfg, tr).Summary
		if p.Summary.Policy != want.Policy || !reflect.DeepEqual(summaryBitsAll(p.Summary), summaryBitsAll(want)) {
			t.Errorf("%s: cell summary differs from a direct Run:\n got %+v\nwant %+v", cfg.Name, p.Summary, want)
		}
	}
	if _, err := RunFaultMatrix(m, Scale{}); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

// TestRunScenarioSweepTiny pins the scenario sweep harness: cells come back
// scenario-major in the input orders, and each cell's Summary is bitwise the
// Summary of a direct RunSource of the same configuration and workload.
func TestRunScenarioSweepTiny(t *testing.T) {
	allocs := []AllocPolicy{AllocRoundRobin, AllocLeastLoaded}
	scenarios := []string{"mixed-het", "steady", "rack-outage"}
	const jobs, seed = 300, 5
	pts, err := RunScenarioSweep(allocs, scenarios, jobs, seed)
	if err != nil {
		t.Fatalf("RunScenarioSweep: %v", err)
	}
	if len(pts) != len(scenarios)*len(allocs) {
		t.Fatalf("points %d want %d", len(pts), len(scenarios)*len(allocs))
	}
	for i, p := range pts {
		name, alloc := scenarios[i/len(allocs)], allocs[i%len(allocs)]
		if p.Scenario != name || p.Alloc != alloc {
			t.Fatalf("point %d is %s/%s want %s/%s (scenario-major order)", i, p.Scenario, p.Alloc, name, alloc)
		}
		scen, ok := LookupScenario(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		scen = scen.Scaled(0, jobs)
		cfg := Config{
			Name: fmt.Sprintf("%s/%s", name, alloc), Seed: seed, Alloc: alloc,
			DPM: DPMFixedTimeout, FixedTimeoutSec: 60,
		}
		scen.ApplyTo(&cfg)
		src, err := scen.Source(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSource(cfg, src)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if p.Summary.Jobs != jobs {
			t.Errorf("%s: %d jobs want %d", cfg.Name, p.Summary.Jobs, jobs)
		}
		if p.Summary.Policy != res.Summary.Policy ||
			!reflect.DeepEqual(summaryBitsAll(p.Summary), summaryBitsAll(res.Summary)) {
			t.Errorf("%s: cell summary differs from a direct RunSource:\n got %+v\nwant %+v",
				cfg.Name, p.Summary, res.Summary)
		}
	}
	if _, err := RunScenarioSweep(nil, scenarios, jobs, seed); err == nil {
		t.Fatal("empty allocator list accepted")
	}
	if _, err := RunScenarioSweep(allocs, []string{"no-such-scenario"}, jobs, seed); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
