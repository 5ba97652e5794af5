package hierdrl_test

import (
	"math"
	"runtime"
	"testing"

	"hierdrl"
)

// The Seed=1 metric fingerprint of the three-system comparison at a reduced
// operating point (M=6, 500 jobs, 200 warmup jobs). These are the exact
// float64 bit patterns produced by the seed implementation, re-recorded when
// mat.RNG moved from math/rand's source to PCG and every simulated stream
// changed, and when the paper workload moved onto internal/workload's
// generator and its streams changed; every performance PR must reproduce them
// bit for bit — the whole optimization discipline of this repo is "faster,
// not different".
// Regenerate only when the simulated dynamics are changed intentionally.
var goldenM6 = map[string][3]uint64{ // policy -> {energy kWh, acc latency s, avg power W}
	"round-robin":  {0x401256a3aebf5ec2, 0x411d6e5d6a76a0ec, 0x408231aa877ff2c1},
	"drl-only":     {0x400299f5fbf91d5e, 0x411d758b7c0e7ca8, 0x40726f76857e1be3},
	"hierarchical": {0x40000d93187f5e6a, 0x411d7530163e4980, 0x406fc09c8a5de7e4},
}

// TestSeed1MetricsBitwiseGolden asserts the acceptance criterion of the
// event-engine rewrite: per-policy energy, accumulated latency, and average
// power at a fixed seed are bitwise identical to the pre-rewrite output.
func TestSeed1MetricsBitwiseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full three-system comparison is slow; run without -short")
	}
	sc := hierdrl.Scale{Jobs: 500, WarmupJobs: 200, ClusterM: 6}
	res, err := hierdrl.Study{Cells: []hierdrl.Cell{
		{Name: "round-robin", Config: hierdrl.RoundRobin(6), Scale: sc},
		{Name: "drl-only", Config: hierdrl.DRLOnly(6), Scale: sc},
		{Name: "hierarchical", Config: hierdrl.Hierarchical(6), Scale: sc},
	}, Seeds: []int64{1}}.Run()
	if err != nil {
		t.Fatalf("Study.Run: %v", err)
	}
	for _, runs := range res {
		s := runs[0].Summary
		want, ok := goldenM6[s.Policy]
		if !ok {
			t.Fatalf("unexpected policy %q", s.Policy)
		}
		got := [3]uint64{
			math.Float64bits(s.EnergykWh),
			math.Float64bits(s.AccLatencySec),
			math.Float64bits(s.AvgPowerW),
		}
		// The golden bits were recorded on amd64; other architectures may
		// round math.Exp/Tanh differently, so they get a tolerance check
		// while amd64 stays exact.
		if runtime.GOARCH == "amd64" {
			if got != want {
				t.Errorf("%s: metrics diverged from golden bits:\n got %016x %016x %016x\nwant %016x %016x %016x",
					s.Policy, got[0], got[1], got[2], want[0], want[1], want[2])
			}
			continue
		}
		ref := [3]float64{
			math.Float64frombits(want[0]),
			math.Float64frombits(want[1]),
			math.Float64frombits(want[2]),
		}
		vals := [3]float64{s.EnergykWh, s.AccLatencySec, s.AvgPowerW}
		for i := range vals {
			if math.Abs(vals[i]-ref[i]) > 1e-6*(1+math.Abs(ref[i])) {
				t.Errorf("%s: metric %d = %v want ~%v", s.Policy, i, vals[i], ref[i])
			}
		}
	}
}
