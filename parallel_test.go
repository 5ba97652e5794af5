package hierdrl

import (
	"errors"
	"testing"
)

// TestRunComparisonMatchesSequential pins the concurrency contract: a
// pooled study of the three paper systems over two seeds produces exactly
// the metrics of independent sequential Run calls on the documented workload
// (the seed's trace, its seed+1000 warmup trace; per-run RNG chains).
func TestRunComparisonMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve end-to-end runs; skip with -short")
	}
	m, seeds := 4, []int64{3, 4}
	cells := paperCells(m, 0)
	res := runStudy(t, cells, seeds...)
	sc := tinyScale(m)
	for k, seed := range seeds {
		tr := SyntheticTraceForCluster(sc.Jobs, m, seed)
		warm := SyntheticTraceForCluster(sc.WarmupJobs, m, seed+1000)
		for i, mk := range []func() Config{
			func() Config { return RoundRobin(m) },
			func() Config { c := DRLOnly(m); c.WarmupTrace = warm; return c },
			func() Config { c := Hierarchical(m); c.WarmupTrace = warm; return c },
		} {
			cfg := mk()
			cfg.Seed = seed
			want := runOrFatal(t, cfg, tr).Summary
			if got := res[i][k].Summary; !sameSummary(got, want) {
				t.Fatalf("%s seed %d: concurrent %+v != sequential %+v", cfg.Name, seed, got, want)
			}
		}
	}
}

// TestRunTradeoffOrderingStable pins the result layout: in a lambda x seed
// grid, result [i][k] is cell i at seed k — bitwise the one-cell, one-seed
// study of that pair — however the worker pool scheduled the grid.
func TestRunTradeoffOrderingStable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs; skip with -short")
	}
	cells, seeds := lambdaCells(4, []float64{0.3, 0.7}), []int64{3, 4}
	res := runStudy(t, cells, seeds...)
	for i, c := range cells {
		for k, seed := range seeds {
			want := runStudy(t, []Cell{c}, seed)[0][0].Summary
			if got := res[i][k].Summary; !sameSummary(got, want) {
				t.Fatalf("[%d][%d] is not %s at seed %d (ordering lost):\n got %+v\nwant %+v",
					i, k, c.Name, seed, got, want)
			}
		}
	}
}

func TestRunParallelErrorSelection(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := runParallel([]func() error{
		func() error { return nil },
		func() error { return errA },
		func() error { return errB },
	})
	if !errors.Is(err, errA) {
		t.Fatalf("runParallel returned %v, want first failing task's error %v", err, errA)
	}
	if err := runParallel(nil); err != nil {
		t.Fatalf("empty task list: %v", err)
	}
}
