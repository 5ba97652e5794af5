package main

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"hierdrl"
)

// summaryBitsAll flattens every numeric Summary field to its bit pattern, so
// two summaries compare bitwise across all measurements (NaN-safe, -0-aware).
func summaryBitsAll(s hierdrl.Summary) []uint64 {
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

// directRun runs one cell at one seed without the study: the Config with the
// seed, on the workload the Cell documents, through Run or RunSource.
func directRun(t *testing.T, c hierdrl.Cell, seed int64) *hierdrl.Result {
	t.Helper()
	cfg := c.Config
	cfg.Seed = seed
	var res *hierdrl.Result
	var err error
	if c.Scenario != "" {
		scen, ok := hierdrl.LookupScenario(c.Scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", c.Scenario)
		}
		scen = scen.Scaled(0, c.Scale.Jobs)
		scen.ApplyTo(&cfg)
		src, serr := scen.Source(seed)
		if serr != nil {
			t.Fatal(serr)
		}
		res, err = hierdrl.RunSource(cfg, src)
	} else {
		sc := c.Scale
		if sc.WarmupJobs > 0 {
			cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(sc.WarmupJobs, sc.ClusterM, seed+1000)
		}
		res, err = hierdrl.Run(cfg, hierdrl.SyntheticTraceForCluster(sc.Jobs, sc.ClusterM, seed))
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", c.Name, seed, err)
	}
	return res
}

// TestStudyCellsMatchDirectRuns is the study's contract on every generator
// the tables are built from: at a tiny scale and seeds {3, 4}, result [i][k]
// is bitwise (Summary and checkpoint series) a direct Run / RunSource of
// cell i's Config and workload at seed k — cell-major, seed-minor, however
// the worker pool scheduled it.
func TestStudyCellsMatchDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("~160 end-to-end runs; skip with -short")
	}
	tiny := func(m int) hierdrl.Scale { return hierdrl.Scale{Jobs: 400, WarmupJobs: 150, ClusterM: m} }
	seeds := []int64{3, 4}
	for _, tc := range []struct {
		name  string
		cells []hierdrl.Cell
	}{
		{"comparison", comparisonCells(4, tiny(4), 100)},
		{"tradeoff", tradeoffCells(4, tiny(4), []float64{0.3, 0.7})},
		{"faultsweep", faultSweepCells(4, tiny(4), []float64{2000, 20000})},
		{"faultmatrix", faultMatrixCells(12, tiny(12))},
		{"scenarios", scenarioCells([]hierdrl.AllocPolicy{hierdrl.AllocRoundRobin, hierdrl.AllocLeastLoaded},
			[]string{"mixed-het", "steady", "rack-outage"}, 300)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := hierdrl.Study{Cells: tc.cells, Seeds: seeds}.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.cells) {
				t.Fatalf("%d cells of results, want %d", len(got), len(tc.cells))
			}
			var failures int64
			for i, c := range tc.cells {
				if len(got[i]) != len(seeds) {
					t.Fatalf("%s: %d seeds of results, want %d", c.Name, len(got[i]), len(seeds))
				}
				for k, seed := range seeds {
					g, want := got[i][k], directRun(t, c, seed)
					if g.Summary.Policy != want.Summary.Policy ||
						!reflect.DeepEqual(summaryBitsAll(g.Summary), summaryBitsAll(want.Summary)) ||
						!reflect.DeepEqual(g.Checkpoints, want.Checkpoints) {
						t.Errorf("%s seed %d: study result differs from a direct run:\n got %+v\nwant %+v",
							c.Name, seed, g.Summary, want.Summary)
					}
					if jobs := c.Scale.Jobs; g.Summary.Jobs != jobs {
						t.Errorf("%s seed %d: %d jobs, want %d", c.Name, seed, g.Summary.Jobs, jobs)
					}
					failures += g.Summary.Failures
				}
			}
			if tc.name == "comparison" && len(got[0][0].Checkpoints) == 0 {
				t.Error("comparison cells recorded no checkpoint series")
			}
			if tc.name == "faultsweep" && failures == 0 {
				t.Error("no failures across the whole sweep; MTTFs too gentle for the test to bite")
			}
		})
	}
}

func TestParseSeeds(t *testing.T) {
	for in, want := range map[string][]int64{
		"1":       {1},
		"7,3":     {7, 3},
		"1-3":     {1, 2, 3},
		"1-3,9,5": {1, 2, 3, 9, 5},
		"4-4":     {4},
	} {
		if got, err := parseSeeds(in); err != nil || !slices.Equal(got, want) {
			t.Errorf("parseSeeds(%q) = %v, %v want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "x", "1,", "3-1", "1-", "-2", "1-2-3", "0-9223372036854775807"} {
		if got, err := parseSeeds(in); err == nil {
			t.Errorf("parseSeeds(%q) = %v, want an error", in, got)
		}
	}
}
