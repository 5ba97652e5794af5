package hierdrl_test

import (
	"math"
	"testing"

	"hierdrl"
)

// faultCfg builds a baseline configuration with exponential crash/repair
// faults aggressive enough that a few-thousand-job run sees multiple crashes.
func faultCfg(m int) hierdrl.Config {
	cfg := hierdrl.RoundRobin(m)
	cfg.Name = "fault-baseline"
	cfg.Alloc = hierdrl.AllocLeastLoaded
	cfg.Faults = hierdrl.FaultExpCrash
	cfg.MTTFSec = 20000
	cfg.MTTRSec = 600
	cfg.Retry = hierdrl.RetryImmediate
	return cfg
}

// faultBits extends the shared summary fingerprint with every fault-facing
// field — including the correlated/fail-slow/drain telemetry — so two runs
// compare bitwise across both the base measurements and the robustness
// telemetry.
func faultBits(s hierdrl.Summary) [17]uint64 {
	base := summaryBits(s)
	return [17]uint64{
		base[0], base[1], base[2], base[3], base[4], base[5], base[6], base[7],
		math.Float64bits(s.Availability),
		math.Float64bits(s.MTTRSec),
		math.Float64bits(s.LostWorkSec),
		uint64(s.Failures)<<32 | uint64(s.Repairs),
		uint64(s.JobsInterrupted),
		uint64(s.JobsRetried)<<32 | uint64(s.JobsLost),
		uint64(s.JobsMigrated)<<32 | uint64(s.Drains),
		uint64(s.DomainOutages),
		math.Float64bits(s.DegradedSec),
	}
}

// TestFaultInjectionStrict exercises the full crash -> evict -> requeue ->
// complete cycle: with immediate retries every job must
// still finish, and the robustness telemetry must be populated and sane.
func TestFaultInjectionStrict(t *testing.T) {
	cfg := faultCfg(6)
	tr := hierdrl.SyntheticTraceForCluster(3000, 6, 1)

	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary

	if s.Completed() != int64(tr.Len()) {
		t.Errorf("completed %d of %d jobs", s.Completed(), tr.Len())
	}
	if sum.Failures == 0 || sum.Repairs == 0 {
		t.Errorf("expected crashes at MTTF=%vs over %vs: failures=%d repairs=%d",
			cfg.MTTFSec, sum.DurationSec, sum.Failures, sum.Repairs)
	}
	if !(sum.Availability > 0 && sum.Availability < 1) {
		t.Errorf("availability %v outside (0, 1)", sum.Availability)
	}
	if !(sum.MTTRSec > 0) {
		t.Errorf("MTTRSec %v, want > 0", sum.MTTRSec)
	}
	if sum.JobsInterrupted == 0 || sum.JobsRetried == 0 {
		t.Errorf("expected interrupted work: interrupted=%d retried=%d",
			sum.JobsInterrupted, sum.JobsRetried)
	}
	if sum.JobsLost != 0 {
		t.Errorf("immediate retry lost %d jobs", sum.JobsLost)
	}
	if !(sum.LostWorkSec > 0) {
		t.Errorf("LostWorkSec %v, want > 0 (evicted jobs had started)", sum.LostWorkSec)
	}
}

// TestFaultReproducibleAcrossRuns is the robustness acceptance test: with
// failure clocks armed, two runs are bitwise identical — the failure
// schedule is a pure function of (seed, serverID).
func TestFaultReproducibleAcrossRuns(t *testing.T) {
	cfg := faultCfg(8)
	cfg.Retry = hierdrl.RetryBackoff
	tr := hierdrl.SyntheticTraceForCluster(2000, 8, 1)
	var ref [17]uint64
	for run := 0; run < 2; run++ {
		res, err := hierdrl.Run(cfg, tr)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		bits := faultBits(res.Summary)
		if run == 0 {
			ref = bits
			if res.Summary.Failures == 0 {
				t.Fatal("no failures injected; test is vacuous")
			}
			continue
		}
		if bits != ref {
			t.Errorf("runs differ bitwise:\n  run0 %v\n  run1 %v", ref, bits)
		}
	}
}

// correlatedCfg arms domain-correlated crashes: 4 racks of 2 on 8 servers,
// aggressive enough that whole-rack outages occur within a short run.
func correlatedCfg(m int) hierdrl.Config {
	cfg := faultCfg(m)
	cfg.Name = "fault-correlated"
	cfg.Faults = hierdrl.FaultCorrelatedCrash
	cfg.Domains = hierdrl.EqualDomains(m/2, m)
	cfg.Retry = hierdrl.RetryBackoff
	return cfg
}

// degradeCfg arms fail-slow degradation (no eviction, just slow servers).
func degradeCfg(m int) hierdrl.Config {
	cfg := faultCfg(m)
	cfg.Name = "fault-degrade"
	cfg.Faults = hierdrl.FaultDegrade
	cfg.DegradeFactor = 0.25
	cfg.MTTFSec = 8000
	cfg.MTTRSec = 2000
	return cfg
}

// drainCfg arms rolling maintenance windows frequent enough that several
// servers drain during a short run; pack-fit concentrates queues so drains
// actually find queued jobs to migrate.
func drainCfg(m int) hierdrl.Config {
	cfg := faultCfg(m)
	cfg.Name = "fault-drain"
	cfg.Alloc = hierdrl.AllocPackFit
	cfg.Faults = hierdrl.FaultDrain
	cfg.DrainEverySec = 6000
	cfg.DrainWindowSec = 400
	cfg.Retry = hierdrl.RetryImmediate
	return cfg
}

// TestNewFaultModelsReproducibleAcrossRuns extends the robustness acceptance
// test to the three topology-aware fault classes: for each of
// correlated-crash, degrade, and maintenance-drain, two runs are bitwise
// identical, and each model's distinctive telemetry is
// actually exercised (the runs are not vacuous).
func TestNewFaultModelsReproducibleAcrossRuns(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(2000, 8, 1)
	cases := []struct {
		name  string
		cfg   hierdrl.Config
		check func(t *testing.T, s hierdrl.Summary)
	}{
		{"correlated-crash", correlatedCfg(8), func(t *testing.T, s hierdrl.Summary) {
			if s.Failures == 0 {
				t.Fatal("no correlated crashes injected; test is vacuous")
			}
			if s.DomainOutages == 0 {
				t.Error("correlated crashes produced no whole-domain outages")
			}
		}},
		{"degrade", degradeCfg(8), func(t *testing.T, s hierdrl.Summary) {
			if s.Failures == 0 {
				t.Fatal("no degrade windows opened; test is vacuous")
			}
			if !(s.DegradedSec > 0) {
				t.Errorf("DegradedSec %v, want > 0", s.DegradedSec)
			}
			if s.JobsInterrupted != 0 || s.JobsLost != 0 || s.LostWorkSec != 0 {
				t.Errorf("fail-slow must not evict: interrupted=%d lost=%d lostWork=%v",
					s.JobsInterrupted, s.JobsLost, s.LostWorkSec)
			}
		}},
		{"maintenance-drain", drainCfg(8), func(t *testing.T, s hierdrl.Summary) {
			if s.Drains == 0 {
				t.Fatal("no maintenance windows opened; test is vacuous")
			}
			if s.JobsInterrupted != 0 {
				t.Errorf("planned drains interrupted %d running jobs", s.JobsInterrupted)
			}
			if s.JobsMigrated < 0 || s.JobsLost != 0 {
				t.Errorf("migrated=%d lost=%d", s.JobsMigrated, s.JobsLost)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var ref [17]uint64
			for run := 0; run < 2; run++ {
				res, err := hierdrl.Run(tc.cfg, tr)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				bits := faultBits(res.Summary)
				if run == 0 {
					ref = bits
					tc.check(t, res.Summary)
					continue
				}
				if bits != ref {
					t.Errorf("runs differ bitwise:\n  run0 %v\n  run1 %v", ref, bits)
				}
			}
		})
	}
}

// TestMaintenanceDrainMigratesQueue forces queued work onto draining servers
// (pack-fit concentrates load, short drain period) and checks the graceful
// path end to end: queued jobs migrate rather than being interrupted, every
// job still completes, and the migrated/interrupted split stays disjoint.
func TestMaintenanceDrainMigratesQueue(t *testing.T) {
	cfg := drainCfg(4)
	cfg.DrainEverySec = 3000
	tr := hierdrl.SyntheticTraceForCluster(4000, 3, 1) // overload 4 servers with a 3-server rate

	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if s.Completed() != int64(tr.Len()) {
		t.Errorf("completed %d of %d jobs", s.Completed(), tr.Len())
	}
	if sum.Drains == 0 {
		t.Fatal("no maintenance windows opened; test is vacuous")
	}
	if sum.JobsMigrated == 0 {
		t.Errorf("overloaded drain run migrated no queued jobs (drains=%d)", sum.Drains)
	}
	if sum.JobsInterrupted != 0 {
		t.Errorf("drains interrupted %d running jobs; planned maintenance must let them finish",
			sum.JobsInterrupted)
	}
	if sum.JobsLost != 0 || sum.LostWorkSec != 0 {
		t.Errorf("graceful drain lost jobs/work: lost=%d lostWork=%v", sum.JobsLost, sum.LostWorkSec)
	}
	if !(sum.Availability > 0 && sum.Availability < 1) {
		t.Errorf("availability %v outside (0, 1) despite %d drains", sum.Availability, sum.Drains)
	}
}

// TestDegradeStretchesLatency pins the fail-slow semantics against a
// fault-free control: identical workload and policy, so any latency growth
// is attributable to degraded service speed — and the fault-free run must
// report zero extended-fault telemetry.
func TestDegradeStretchesLatency(t *testing.T) {
	tr := hierdrl.SyntheticTraceForCluster(3000, 6, 1)
	base := faultCfg(6)
	base.Faults = hierdrl.FaultNone

	ctl, err := hierdrl.Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := hierdrl.Run(degradeCfg(6), tr)
	if err != nil {
		t.Fatal(err)
	}
	c, d := ctl.Summary, deg.Summary
	if c.DegradedSec != 0 || c.JobsMigrated != 0 || c.DomainOutages != 0 || c.Drains != 0 {
		t.Errorf("fault-free run reports fault telemetry: %+v", c)
	}
	if !(d.DegradedSec > 0) {
		t.Fatalf("DegradedSec %v, want > 0", d.DegradedSec)
	}
	if !(d.AccLatencySec > c.AccLatencySec) {
		t.Errorf("degraded run accumulated less latency than the control: %v <= %v",
			d.AccLatencySec, c.AccLatencySec)
	}
	if d.Availability != 1 {
		t.Errorf("fail-slow availability %v, want exactly 1 (servers never leave service)",
			d.Availability)
	}
}

// TestRegisteredRetryPolicy drives the crash path through the drop-after
// policy at its tightest setting and checks the loss accounting closes:
// every interruption is either retried or lost, and every ingested job
// either completes or is counted lost.
func TestRegisteredRetryPolicy(t *testing.T) {
	cfg := faultCfg(6)
	cfg.Retry = hierdrl.RetryDropAfter
	cfg.RetryMax = 1
	tr := hierdrl.SyntheticTraceForCluster(3000, 6, 1)

	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	sum := drainResult(t, s).Summary
	if sum.JobsLost == 0 {
		t.Errorf("no jobs lost under drop-after 1 with %d failures", sum.Failures)
	}
	if sum.JobsRetried+sum.JobsLost != sum.JobsInterrupted {
		t.Errorf("retried %d + lost %d != interrupted %d", sum.JobsRetried, sum.JobsLost, sum.JobsInterrupted)
	}
	if got := s.Completed() + sum.JobsLost; got != s.Ingested() {
		t.Errorf("completed %d + lost %d != ingested %d", s.Completed(), sum.JobsLost, s.Ingested())
	}
}

// TestDRLDispatchMonotoneUnderFaultRequeues: a drain (or crash) can hand
// back several queued jobs at one instant while later arrivals are pending;
// every requeued job must dispatch at or after the clock, or the DRL reward
// integrator would run backwards (panic: "time went backwards"). The DRL
// allocator over the fixed-timeout tier with a short staggered drain drives
// that interleaving; the same config must also stay bitwise reproducible run
// to run.
func TestDRLDispatchMonotoneUnderFaultRequeues(t *testing.T) {
	mkCfg := func() hierdrl.Config {
		cfg := hierdrl.FixedTimeoutBaseline(16, 60)
		cfg.Seed = 1
		cfg.Faults = hierdrl.FaultDrain
		cfg.DrainEverySec = 7200
		cfg.DrainWindowSec = 300
		cfg.Retry = hierdrl.RetryImmediate
		return cfg
	}
	tr := hierdrl.SyntheticTraceForCluster(3000, 16, 1)
	var ref [17]uint64
	for run := 0; run < 2; run++ {
		res, err := hierdrl.Run(mkCfg(), tr)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Summary.Drains == 0 {
			t.Fatal("no drains fired; test is vacuous")
		}
		bits := faultBits(res.Summary)
		if run == 0 {
			ref = bits
		} else if bits != ref {
			t.Errorf("run %d summary diverged:\n  run0 %v\n  run%d %v", run, ref, run, bits)
		}
	}
}
