//go:build !race

package hierdrl_test

import (
	"testing"

	"hierdrl"
)

// TestShardedSteadyStepZeroAlloc pins the least-loaded steady state: with
// every pool warm (event slots, job pool, metric buffers, load index) a Step
// — load-index allocation, dispatch, server events — performs zero heap
// allocations. The configuration avoids the RL power manager (pinned on its
// own by internal/local's TestRLTimeoutEpochAllocatesNothing) so the pin
// measures the engine and the load index themselves.
//
// The build tag mirrors the other alloc-pinned suites: race instrumentation
// allocates, so exact counts only hold without -race.
func TestShardedSteadyStepZeroAlloc(t *testing.T) {
	m := 16
	cfg := hierdrl.RoundRobin(m)
	cfg.Name = "least-loaded"
	cfg.Alloc = hierdrl.AllocLeastLoaded
	cfg.DPM = hierdrl.DPMFixedTimeout
	cfg.FixedTimeoutSec = 30

	tr := hierdrl.SyntheticTraceForCluster(4000, m, 9)
	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Reserve(2 * len(tr.Jobs))
	// Warm every pool — event slots, job pool, queues — with one full
	// pass, so the measured second stream's in-flight population never
	// exceeds what the pools already hold.
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	span := tr.Jobs[len(tr.Jobs)-1].Arrival
	second := &hierdrl.Trace{Jobs: make([]hierdrl.Job, len(tr.Jobs))}
	copy(second.Jobs, tr.Jobs)
	base := float64(s.Now())
	for i := range second.Jobs {
		second.Jobs[i].Arrival += base + span/1000
	}
	if err := s.SubmitTrace(second); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(hierdrl.Time(second.Jobs[len(second.Jobs)/2].Arrival)); err != nil {
		t.Fatal(err)
	}

	const steps = 500
	avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perStep := avg / steps; perStep > 0.01 {
		t.Errorf("least-loaded steady step allocates %.3f allocs/step, want 0", perStep)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIntoZeroAllocWarm pins the Session.Snapshot satellite: a warm
// SnapshotInto allocates nothing.
func TestSnapshotIntoZeroAllocWarm(t *testing.T) {
	cfg := hierdrl.RoundRobin(8)
	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := hierdrl.SyntheticTraceForCluster(300, 8, 4)
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.StepUntil(hierdrl.Time(tr.Jobs[150].Arrival)); err != nil {
		t.Fatal(err)
	}
	var snap hierdrl.SessionSnapshot
	s.SnapshotInto(&snap) // first call sizes the view buffers
	if avg := testing.AllocsPerRun(100, func() { s.SnapshotInto(&snap) }); avg > 0 {
		t.Errorf("warm SnapshotInto allocates %.1f allocs/op, want 0", avg)
	}
	if snap.View.M != 8 || snap.Ingested != int64(len(tr.Jobs)) {
		t.Fatalf("bad snapshot %+v", snap)
	}
}
