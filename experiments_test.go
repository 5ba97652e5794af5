package hierdrl

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// tinyScale is the synthetic workload the study tests run on.
func tinyScale(m int) Scale {
	return Scale{Jobs: 400, WarmupJobs: 150, ClusterM: m}
}

// paperCells are the paper's three systems on one tiny synthetic workload,
// recording the accumulated series every `every` jobs (0: none).
func paperCells(m, every int) []Cell {
	var cells []Cell
	for _, cfg := range []Config{RoundRobin(m), DRLOnly(m), Hierarchical(m)} {
		cfg.CheckpointEvery = every
		cells = append(cells, Cell{Name: cfg.Name, Config: cfg, Scale: tinyScale(m)})
	}
	return cells
}

// lambdaCells are hierarchical cells at each trade-off weight lambda (Fig. 10):
// global weights W1 = 2(1-lambda), W2 = 2*lambda and local weight 1-lambda.
func lambdaCells(m int, lambdas []float64) []Cell {
	var cells []Cell
	for _, lam := range lambdas {
		cfg := Hierarchical(m)
		cfg.Name = fmt.Sprintf("hierarchical/lambda=%v", lam)
		cfg.LocalRL.PowerWeight = 1 - lam
		cfg.Global.W1, cfg.Global.W2 = 2*(1-lam), 2*lam
		cells = append(cells, Cell{Name: cfg.Name, Config: cfg, Scale: tinyScale(m)})
	}
	return cells
}

// heuristicAllocs are the non-learning allocators the fault studies compare.
var heuristicAllocs = []AllocPolicy{AllocRoundRobin, AllocRandom, AllocLeastLoaded, AllocPackFit}

// faultCell runs alloc under a fault model with a 600 s repair time,
// capped-backoff retries and a fixed 60 s timeout, with no warmup.
func faultCell(m int, alloc AllocPolicy, faults FaultKind, mttf float64) Cell {
	sc := tinyScale(m)
	sc.WarmupJobs = 0
	name := fmt.Sprintf("%s/%s/mttf=%.0fs", alloc, faults, mttf)
	return Cell{Name: name, Scale: sc, Config: Config{
		Name: name, M: m, Alloc: alloc, DPM: DPMFixedTimeout, FixedTimeoutSec: 60,
		Faults: faults, MTTFSec: mttf, MTTRSec: 600, Retry: RetryBackoff,
	}}
}

// runStudy runs cells over seeds, failing the test on error or a misshapen
// result grid.
func runStudy(t *testing.T, cells []Cell, seeds ...int64) [][]*Result {
	t.Helper()
	res, err := Study{Cells: cells, Seeds: seeds}.Run()
	if err != nil {
		t.Fatalf("Study.Run: %v", err)
	}
	if len(res) != len(cells) {
		t.Fatalf("%d cells of results, want %d", len(res), len(cells))
	}
	for i, runs := range res {
		if len(runs) != len(seeds) {
			t.Fatalf("%s: %d seeds of results, want %d", cells[i].Name, len(runs), len(seeds))
		}
	}
	return res
}

// directRun runs one cell at one seed without the study: its Config with the
// seed, on the workload the Cell documents, through Run or RunSource.
func directRun(t *testing.T, c Cell, seed int64) *Result {
	t.Helper()
	cfg := c.Config
	cfg.Seed = seed
	var res *Result
	var err error
	if c.Scenario != "" {
		scen, ok := LookupScenario(c.Scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", c.Scenario)
		}
		scen = scen.Scaled(0, c.Scale.Jobs)
		scen.ApplyTo(&cfg)
		src, serr := scen.Source(seed)
		if serr != nil {
			t.Fatal(serr)
		}
		res, err = RunSource(cfg, src)
	} else {
		sc := c.Scale
		if sc.WarmupJobs > 0 {
			cfg.WarmupTrace = SyntheticTraceForCluster(sc.WarmupJobs, sc.ClusterM, seed+1000)
		}
		res, err = Run(cfg, SyntheticTraceForCluster(sc.Jobs, sc.ClusterM, seed))
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", c.Name, seed, err)
	}
	return res
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

// sameSummary reports whether two summaries are bitwise equal.
func sameSummary(a, b Summary) bool {
	return a.Policy == b.Policy && reflect.DeepEqual(summaryBitsAll(a), summaryBitsAll(b))
}

// wantStudyError runs a study that must fail and checks the error names want.
func wantStudyError(t *testing.T, st Study, want string) {
	t.Helper()
	res, err := st.Run()
	if err == nil || !strings.Contains(err.Error(), want) || res != nil {
		t.Errorf("got (%v, %v), want an error containing %q", res, err, want)
	}
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

// TestRunComparisonTiny runs the paper's three systems as one study: rows
// come back in cell order, each completes the workload, and the Fig. 8/9
// checkpoint series is recorded.
func TestRunComparisonTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("three end-to-end runs; skip with -short")
	}
	res := runStudy(t, paperCells(4, 100), 3)
	for i, name := range []string{"round-robin", "drl-only", "hierarchical"} {
		s := res[i][0].Summary
		if s.Policy != name {
			t.Fatalf("row %d policy %q want %q", i, s.Policy, name)
		}
		if s.Jobs != 400 {
			t.Fatalf("%s completed %d jobs want 400", s.Policy, s.Jobs)
		}
		if s.EnergykWh <= 0 {
			t.Fatalf("%s energy %v", s.Policy, s.EnergykWh)
		}
		if len(res[i][0].Checkpoints) == 0 {
			t.Fatalf("%s: missing checkpoints", s.Policy)
		}
	}
}

// TestRunTradeoffTiny runs a Fig. 10 lambda grid as one study: every cell
// gives a non-degenerate trade-off point, and an out-of-range lambda (negative
// reward weights) fails the study with the cell's name.
func TestRunTradeoffTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("many end-to-end runs; skip with -short")
	}
	lambdas := []float64{0.3, 0.7}
	cells := lambdaCells(4, lambdas)
	fixed := FixedTimeoutBaseline(4, 60)
	cells = append(cells, Cell{Name: fixed.Name, Config: fixed, Scale: tinyScale(4)})
	res := runStudy(t, cells, 3)
	var curve []TradeoffPoint
	for i, runs := range res {
		p := runs[0].Tradeoff(cells[i].Name, 0)
		if p.AvgLatencySec <= 0 || p.AvgEnergyJPerJob <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
		curve = append(curve, p)
	}
	if hv := HypervolumeOf(curve, 1e9, 1e9); hv <= 0 {
		t.Fatalf("hypervolume %v", hv)
	}
	wantStudyError(t, Study{Cells: lambdaCells(4, []float64{1.5}), Seeds: []int64{3}}, "hierarchical/lambda=1.5")
}

// TestFixedTimeoutBaselinesNamedByTimeout: two fixed-timeout baselines that
// differ only in the timeout report distinct policies from one study.
func TestFixedTimeoutBaselinesNamedByTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("two end-to-end runs; skip with -short")
	}
	var cells []Cell
	for _, sec := range []float64{30, 60} {
		cells = append(cells, Cell{Name: fmt.Sprint("fixed/", sec), Config: FixedTimeoutBaseline(4, sec), Scale: tinyScale(4)})
	}
	res := runStudy(t, cells, 3)
	for i, want := range []string{"fixed-timeout-30s", "fixed-timeout-60s"} {
		if got := res[i][0].Summary.Policy; got != want {
			t.Errorf("cell %s: policy %q, want %q", cells[i].Name, got, want)
		}
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

// TestRunFaultSweepTiny runs every heuristic allocator under two MTTFs as one
// study: cells come back policy-major, availability stays in (0, 1], the
// failures bite, and a negative MTTF fails the study.
func TestRunFaultSweepTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("eight end-to-end fault runs; skip with -short")
	}
	mttfs := []float64{2000, 20000}
	var cells []Cell
	for _, alloc := range heuristicAllocs {
		for _, mttf := range mttfs {
			cells = append(cells, faultCell(4, alloc, FaultExpCrash, mttf))
		}
	}
	res := runStudy(t, cells, 3)
	var totalFailures int64
	for i, runs := range res {
		s := runs[0].Summary
		if want := cells[i].Config.Name; s.Policy != want {
			t.Fatalf("point %d is %q want %q (policy-major order)", i, s.Policy, want)
		}
		if !(s.Availability > 0 && s.Availability <= 1) {
			t.Fatalf("point %d availability %v", i, s.Availability)
		}
		if s.EnergykWh <= 0 {
			t.Fatalf("point %d energy %v", i, s.EnergykWh)
		}
		totalFailures += s.Failures
	}
	if totalFailures == 0 {
		t.Fatal("no failures across the whole sweep; MTTFs too gentle for the test to bite")
	}
	bad := faultCell(4, AllocRoundRobin, FaultExpCrash, -1)
	wantStudyError(t, Study{Cells: []Cell{bad}, Seeds: []int64{3}}, bad.Name)
}

// TestRunFaultMatrixTiny runs every heuristic allocator under each fault
// class as one study: each cell is bitwise a direct Run of the same
// configuration and workload, and a cell with an invalid scale fails the study.
func TestRunFaultMatrixTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("32 end-to-end fault runs; skip with -short")
	}
	m := 12
	var cells []Cell
	for _, alloc := range heuristicAllocs {
		for _, model := range []FaultKind{FaultExpCrash, FaultCorrelatedCrash, FaultDegrade, FaultDrain} {
			c := faultCell(m, alloc, model, 30000)
			if model == FaultCorrelatedCrash {
				c.Config.Domains = EqualDomains(m/6, m)
			}
			cells = append(cells, c)
		}
	}
	res := runStudy(t, cells, 3)
	for i, c := range cells {
		got, want := res[i][0].Summary, directRun(t, c, 3).Summary
		if !sameSummary(got, want) {
			t.Errorf("%s: cell summary differs from a direct Run:\n got %+v\nwant %+v", c.Name, got, want)
		}
	}
	bad := cells[0]
	bad.Scale.ClusterM = 0
	wantStudyError(t, Study{Cells: []Cell{bad}, Seeds: []int64{3}}, "invalid scale")
}

// TestRunScenarioSweepTiny runs allocators over registered scenarios as one
// study: each cell streams the capped scenario and is bitwise a direct
// RunSource of the same configuration and workload; an unknown scenario and
// an empty grid fail the study.
func TestRunScenarioSweepTiny(t *testing.T) {
	const jobs, seed = 300, 5
	var cells []Cell
	for _, scen := range []string{"mixed-het", "steady", "rack-outage"} {
		for _, alloc := range []AllocPolicy{AllocRoundRobin, AllocLeastLoaded} {
			name := fmt.Sprintf("%s/%s", scen, alloc)
			cells = append(cells, Cell{Name: name, Scenario: scen, Scale: Scale{Jobs: jobs},
				Config: Config{Name: name, Alloc: alloc, DPM: DPMFixedTimeout, FixedTimeoutSec: 60}})
		}
	}
	res := runStudy(t, cells, seed)
	for i, c := range cells {
		got, want := res[i][0].Summary, directRun(t, c, seed).Summary
		if got.Jobs != jobs {
			t.Errorf("%s: %d jobs want %d", c.Name, got.Jobs, jobs)
		}
		if !sameSummary(got, want) {
			t.Errorf("%s: cell summary differs from a direct RunSource:\n got %+v\nwant %+v", c.Name, got, want)
		}
	}
	wantStudyError(t, Study{Seeds: []int64{seed}}, "at least one cell")
	wantStudyError(t, Study{Cells: []Cell{{Name: "x", Scenario: "no-such-scenario"}}, Seeds: []int64{seed}}, "unknown scenario")
}

// TestStudyRejectsMalformed pins the study's error paths: every malformed
// grid is an error before any run starts, never a panic.
func TestStudyRejectsMalformed(t *testing.T) {
	ok := Cell{Name: "rr", Config: RoundRobin(4), Scale: Scale{Jobs: 50, ClusterM: 4}}
	for _, tc := range []struct {
		name  string
		study Study
		want  string
	}{
		{"no cells", Study{Seeds: []int64{1}}, "at least one cell"},
		{"no seeds", Study{Cells: []Cell{ok}}, "at least one cell and one seed"},
		{"invalid scale", Study{Cells: []Cell{ok, {Name: "bad", Config: RoundRobin(4), Scale: Scale{Jobs: 50}}}, Seeds: []int64{1}}, "invalid scale"},
		{"unknown scenario", Study{Cells: []Cell{{Name: "x", Scenario: "no-such-scenario"}}, Seeds: []int64{1}}, "unknown scenario"},
		{"no workload", Study{Cells: []Cell{{Name: "x", Config: RoundRobin(4)}}, Seeds: []int64{1}}, "no workload"},
	} {
		t.Run(tc.name, func(t *testing.T) { wantStudyError(t, tc.study, tc.want) })
	}
}

func TestMedianRange(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		med, lo, hi float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1, 4},
	} {
		in := slices.Clone(tc.xs)
		med, lo, hi := MedianRange(tc.xs)
		if med != tc.med || lo != tc.lo || hi != tc.hi {
			t.Errorf("MedianRange(%v) = %v, %v, %v want %v, %v, %v", in, med, lo, hi, tc.med, tc.lo, tc.hi)
		}
		if !slices.Equal(in, tc.xs) {
			t.Errorf("MedianRange reordered its input: %v", tc.xs)
		}
	}
	if med, _, _ := MedianRange(nil); !math.IsNaN(med) {
		t.Errorf("empty median %v, want NaN", med)
	}
}
