//go:build !race

package hierdrl_test

import (
	"testing"

	"hierdrl"
)

// TestSessionSteadyStepZeroAlloc pins the api_redesign acceptance criterion:
// with no observers attached, a steady-state Session step performs zero
// allocations. The workload is pre-ingested (Reserve sizes the
// pending queue), the first three quarters of the run warm every pool —
// event slots, the job pool, server queues, the reused snapshot — and the
// measured window then steps through live arrival/completion traffic.
//
// The build tag mirrors the other alloc-pinned suites: the race detector's
// instrumentation allocates, so exact counts only hold without -race.
func TestSessionSteadyStepZeroAlloc(t *testing.T) {
	// The trace-on row pins the epoch ring's per-decision span at 0 allocs.
	for name, opts := range map[string][]hierdrl.SessionOption{
		"default":     nil,
		"epoch-trace": {hierdrl.WithEpochTrace(256)},
	} {
		t.Run(name, func(t *testing.T) { steadyStepZeroAlloc(t, opts) })
	}
}

func steadyStepZeroAlloc(t *testing.T, opts []hierdrl.SessionOption) {
	const jobs = 6000
	tr := hierdrl.SyntheticTraceForCluster(jobs, 4, 1)
	s, err := hierdrl.NewSession(hierdrl.RoundRobin(4), opts...)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()
	s.Reserve(jobs)
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatalf("SubmitTrace: %v", err)
	}

	// Warm phase: run three quarters of the workload.
	warmUntil := hierdrl.Time(tr.Jobs[3*jobs/4].Arrival)
	if err := s.StepUntil(warmUntil); err != nil {
		t.Fatalf("StepUntil: %v", err)
	}

	avg := testing.AllocsPerRun(2000, func() {
		if _, err := s.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Session step allocates %v allocs/op, want 0", avg)
	}

	// The measured session still finishes correctly.
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if res.Summary.Jobs != jobs {
		t.Fatalf("jobs %d want %d", res.Summary.Jobs, jobs)
	}
}

// TestRequeueWarmPendingZeroAlloc pins BenchmarkRequeueLargePending's op at
// zero allocations: a retry-shaped Submit landing near the head of a long
// pending queue, in-order Submits at its tail and the Steps that dispatch as
// many jobs reuse the queue's storage and every pool.
func TestRequeueWarmPendingZeroAlloc(t *testing.T) {
	const warm, runs = 100, 400
	op := requeueRig(t, 8000, warm+runs+1) // AllocsPerRun adds one warm-up call
	i := 0
	next := func() { op(i); i++ }
	for i < warm {
		next()
	}
	if avg := testing.AllocsPerRun(runs, next); avg != 0 {
		t.Fatalf("warm requeue op allocates %v allocs/op, want 0", avg)
	}
}
