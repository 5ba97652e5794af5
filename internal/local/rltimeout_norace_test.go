//go:build !race

package local

import (
	"testing"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

// TestRLTimeoutEpochAllocatesNothing pins a warm RL timeout's decision cycle
// at zero allocations: an arrival, a power/queue observation and the idle
// epoch that closes one sojourn with a Q update and opens the next. Every
// idle epoch of a run with the local tier pays it. The race detector's
// instrumentation allocates, hence the build tag.
func TestRLTimeoutEpochAllocatesNothing(t *testing.T) {
	mgr, err := NewRLTimeout(DefaultRLConfig(), NewEWMA(0.3), mat.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	epoch := func() {
		now += 40
		mgr.OnArrival(sim.Time(now), nil, cluster.StateActive)
		mgr.Observe(sim.Time(now), 120, 1)
		mgr.OnIdle(sim.Time(now+10), nil)
	}
	for i := 0; i < 10; i++ {
		epoch()
	}
	if got := testing.AllocsPerRun(200, epoch); got != 0 {
		t.Errorf("arrival + Observe + OnIdle: %v allocs, want 0", got)
	}
	if mgr.Updates() == 0 {
		t.Fatal("no idle epoch closed a sojourn: the pin measured no Q update")
	}
}
