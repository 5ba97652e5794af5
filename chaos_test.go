package hierdrl_test

import (
	"math"
	"testing"

	"hierdrl"
)

// TestFaultObserverHammer is the chaos soak: crash/repair injection with
// every observer hook attached and a snapshot taken from inside the
// callbacks, run twice under the race detector. The fingerprint folds in
// every hook firing and a mid-run snapshot, so it fails if fault injection
// perturbs determinism anywhere on the observation surface — not just in the
// final summary.
func TestFaultObserverHammer(t *testing.T) {
	cfg := faultCfg(8)
	cfg.Retry = hierdrl.RetryBackoff
	tr := hierdrl.SyntheticTraceForCluster(1500, 8, 1)
	hammerTwice(t, cfg, tr, func(sum hierdrl.Summary) bool {
		return sum.Failures > 0 && sum.JobsRetried > 0
	})
}

// TestFaultMatrixObserverHammer is the fault-matrix chaos smoke: the same
// fully observed hammer as TestFaultObserverHammer, run over each of the
// three topology-aware fault classes under the race detector. Each model
// pins its own cross-run fingerprint (fingerprints are not compared across
// models — the classes intentionally behave differently) and must exercise
// its distinctive hooks (degrade edges, drain starts, domain outages) so the
// smoke can't pass vacuously.
func TestFaultMatrixObserverHammer(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(1500, 8, 1)
	cases := []struct {
		name string
		cfg  hierdrl.Config
		ok   func(s hierdrl.Summary) bool
	}{
		{"correlated-crash", correlatedCfg(8), func(s hierdrl.Summary) bool {
			return s.Failures > 0 && s.DomainOutages > 0
		}},
		{"degrade", degradeCfg(8), func(s hierdrl.Summary) bool {
			return s.Failures > 0 && s.DegradedSec > 0
		}},
		{"maintenance-drain", drainCfg(8), func(s hierdrl.Summary) bool {
			return s.Drains > 0
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { hammerTwice(t, tc.cfg, tr, tc.ok) })
	}
}

// hammerTwice runs the observed hammer twice and fails unless the first run
// shows the activity ok looks for and both runs share one fingerprint.
func hammerTwice(t *testing.T, cfg hierdrl.Config, tr *hierdrl.Trace, ok func(hierdrl.Summary) bool) {
	t.Helper()
	var ref uint64
	for run := 0; run < 2; run++ {
		fp, sum, err := hammerRun(cfg, tr)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == 0 {
			ref = fp
			if !ok(sum) {
				t.Fatalf("hammer saw no fault activity (failures=%d retried=%d drains=%d outages=%d degraded=%v); test is vacuous",
					sum.Failures, sum.JobsRetried, sum.Drains, sum.DomainOutages, sum.DegradedSec)
			}
			continue
		}
		if fp != ref {
			t.Errorf("observer fingerprints differ run to run: %#x vs %#x", ref, fp)
		}
	}
}

// hammerRun executes one observed fault run and reduces everything the hooks
// saw — and a periodically refreshed snapshot — into one order-sensitive
// fingerprint.
func hammerRun(cfg hierdrl.Config, tr *hierdrl.Trace) (uint64, hierdrl.Summary, error) {
	var (
		s    *hierdrl.Session
		snap hierdrl.SessionSnapshot
		fp   uint64
		done int
	)
	mix := func(vs ...uint64) {
		for _, v := range vs {
			fp ^= v + 0x9E3779B97F4A7C15 + fp<<6 + fp>>2
		}
	}
	obs := hierdrl.Observer{
		OnJobDone: func(at hierdrl.Time, j *hierdrl.ClusterJob) {
			mix(math.Float64bits(float64(at)), uint64(j.ID))
			done++
			if done%200 == 0 {
				// Snapshot from inside a callback: must be race-free and
				// deterministic.
				s.SnapshotInto(&snap)
				mix(uint64(snap.Completed), uint64(snap.Failures),
					math.Float64bits(snap.EnergykWh), math.Float64bits(snap.Availability),
					math.Float64bits(snap.LostWorkSec), uint64(snap.ServersDown))
			}
		},
		OnModeTransition: func(at hierdrl.Time, server int, from, to hierdrl.PowerState) {
			mix(math.Float64bits(float64(at)), uint64(server), uint64(from)<<8|uint64(to))
		},
		OnServerFail: func(at hierdrl.Time, server int) {
			mix(math.Float64bits(float64(at)), uint64(server), 0xFA11)
		},
		OnServerRepair: func(at hierdrl.Time, server int) {
			mix(math.Float64bits(float64(at)), uint64(server), 0x4E9A)
		},
		OnJobRetry: func(at hierdrl.Time, jobID, attempt int, delaySec float64) {
			mix(math.Float64bits(float64(at)), uint64(jobID), uint64(attempt),
				math.Float64bits(delaySec))
		},
		OnServerDegrade: func(at hierdrl.Time, server int, factor float64) {
			mix(math.Float64bits(float64(at)), uint64(server), math.Float64bits(factor), 0xDE64)
		},
		OnDrainStart: func(at hierdrl.Time, server int) {
			mix(math.Float64bits(float64(at)), uint64(server), 0xD4A1)
		},
	}

	s, err := hierdrl.NewSession(cfg, hierdrl.WithObserver(obs))
	if err != nil {
		return 0, hierdrl.Summary{}, err
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		return 0, hierdrl.Summary{}, err
	}
	if err := s.Drain(); err != nil {
		return 0, hierdrl.Summary{}, err
	}
	res, err := s.Result()
	if err != nil {
		return 0, hierdrl.Summary{}, err
	}
	bits := faultBits(res.Summary)
	mix(bits[:]...)
	return fp, res.Summary, nil
}

// TestObserverCallbackOrder pins where the fault callbacks fall relative to
// the retries they cause: a crash fires OnServerFail before the OnJobRetry
// of every job it evicts, and a maintenance window fires OnDrainStart before
// the OnJobRetry of every queued job it migrates. So each retry follows,
// at its own instant, a failure or a drain start with only retries between.
func TestObserverCallbackOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   hierdrl.Config
		tr    *hierdrl.Trace
		cause string
	}{
		{"crash", faultCfg(8), hierdrl.SyntheticTraceForCluster(1500, 8, 1), "fail"},
		{"drain", drainCfg(4), hierdrl.SyntheticTraceForCluster(2000, 4, 1), "drain"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type event struct {
				kind string
				at   hierdrl.Time
			}
			var log []event
			obs := hierdrl.Observer{
				OnServerFail:   func(at hierdrl.Time, _ int) { log = append(log, event{"fail", at}) },
				OnServerRepair: func(at hierdrl.Time, _ int) { log = append(log, event{"repair", at}) },
				OnDrainStart:   func(at hierdrl.Time, _ int) { log = append(log, event{"drain", at}) },
				OnJobRetry: func(at hierdrl.Time, _, _ int, _ float64) {
					log = append(log, event{"retry", at})
				},
			}
			s, err := hierdrl.NewSession(tc.cfg, hierdrl.WithObserver(obs))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.SubmitTrace(tc.tr); err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			caused := 0
			for i, e := range log {
				if e.kind != "retry" {
					continue
				}
				k := i - 1
				for k >= 0 && log[k].kind == "retry" && log[k].at == e.at {
					k--
				}
				if k < 0 || log[k].at != e.at || log[k].kind != "fail" && log[k].kind != "drain" {
					t.Fatalf("retry #%d at %v follows no failure or drain start at its instant", i, e.at)
				}
				if log[k].kind == tc.cause {
					caused++
				}
			}
			if caused == 0 {
				t.Fatalf("no retry followed a %s; test is vacuous", tc.cause)
			}
		})
	}
}
