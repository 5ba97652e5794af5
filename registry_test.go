package hierdrl

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hierdrl/internal/cluster"
	"hierdrl/internal/fault"
)

// TestBuildFaultLayer pins what the one fault-layer builder hands a session
// for each closed-set name: the engine's fault kind, the fail-slow speed
// factor, the failure-domain fallback (Domains, then Classes, then one
// domain) and the retry defaults — and that a fault-free config attaches
// nothing yet still has its retry policy checked.
func TestBuildFaultLayer(t *testing.T) {
	base := func(faults FaultKind) Config {
		cfg := RoundRobin(6)
		cfg.Faults, cfg.MTTFSec, cfg.MTTRSec = faults, 20000, 600
		cfg.Retry = RetryImmediate
		if err := validate(&cfg); err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	build := func(cfg Config) faultLayer {
		t.Helper()
		fl, err := buildFaultLayer(&cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Faults, err)
		}
		return fl
	}

	noneBackoff := base(FaultNone)
	noneBackoff.Retry = RetryBackoff
	if fl := build(noneBackoff); fl.clockFor != nil || fl.retry != (fault.Retry{}) {
		t.Errorf("none: attached a fault layer %+v", fl)
	}
	noneDrop := base(FaultNone)
	noneDrop.Retry = RetryDropAfter
	if _, err := buildFaultLayer(&noneDrop); err == nil || !strings.Contains(err.Error(), "needs RetryMax > 0") {
		t.Errorf("none + drop-after without RetryMax: err = %v", err)
	}

	for _, c := range []struct {
		faults FaultKind
		kind   fault.Kind
		factor float64
	}{
		{FaultExpCrash, fault.KindCrash, 1},
		{FaultCorrelatedCrash, fault.KindCrash, 1},
		{FaultDegrade, fault.KindDegrade, 0.25},
		{FaultDrain, fault.KindDrain, 1},
	} {
		fl := build(base(c.faults))
		if fl.clockFor == nil || fl.kind != c.kind || fl.factor != c.factor {
			t.Errorf("%s: clock %v kind %d factor %v, want kind %d factor %v",
				c.faults, fl.clockFor != nil, fl.kind, fl.factor, c.kind, c.factor)
		}
		if (fl.domains != nil) != (c.faults == FaultCorrelatedCrash) {
			t.Errorf("%s: domains %v", c.faults, fl.domains)
		}
		if fl.retry != (fault.Retry{}) {
			t.Errorf("%s: retry %#v, want immediate", c.faults, fl.retry)
		}
	}
	degrade := base(FaultDegrade)
	degrade.DegradeFactor = 0.3
	if fl := build(degrade); fl.factor != 0.3 {
		t.Errorf("degrade factor %v, want the configured 0.3", fl.factor)
	}
	// The factor must lie in (0, 1); 0 selects the 0.25 default (pinned by
	// the table above). It is checked before the rates.
	for _, f := range []float64{1, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		degrade.DegradeFactor = f
		if _, err := buildFaultLayer(&degrade); err == nil || !strings.Contains(err.Error(), "degrade factor") {
			t.Errorf("degrade factor %v: err = %v", f, err)
		}
		degrade.MTTFSec = 0
		if _, err := buildFaultLayer(&degrade); err == nil || !strings.Contains(err.Error(), "degrade factor") {
			t.Errorf("degrade factor %v with MTTF 0: err = %v, want the factor error", f, err)
		}
		degrade.MTTFSec = 20000
	}
	if c := build(base(FaultDrain)).clockFor(0); c.NextFailure() != 14400 || c.NextRepair() != 600 {
		t.Error("drain defaults are not 14400 s / 600 s")
	}

	// Failure domains: explicit Domains win, then one per server class, then
	// the whole cluster as one.
	corr := base(FaultCorrelatedCrash)
	if got := build(corr).domains; !reflect.DeepEqual(got, []FailureDomain{{Name: "dom0", Count: 6}}) {
		t.Errorf("default domains %v", got)
	}
	corr.Cluster = cluster.DefaultConfig(6)
	corr.Cluster.Classes = []ServerClass{{Name: "a", Count: 2}, {Name: "b", Count: 4}}
	if got := build(corr).domains; !reflect.DeepEqual(got, []FailureDomain{{Name: "a", Count: 2}, {Name: "b", Count: 4}}) {
		t.Errorf("class-derived domains %v", got)
	}
	corr.Domains = EqualDomains(3, 6)
	if got := build(corr).domains; !reflect.DeepEqual(got, corr.Domains) {
		t.Errorf("explicit domains %v, want %v", got, corr.Domains)
	}

	backoff := base(FaultExpCrash)
	backoff.Retry, backoff.RetryMax = RetryBackoff, 4
	if got := build(backoff).retry; got != (fault.Retry{BaseSec: 30, CapSec: 600, Max: 4}) {
		t.Errorf("backoff defaults %#v", got)
	}
	drop := base(FaultExpCrash)
	drop.Retry, drop.RetryMax = RetryDropAfter, 2
	if got := build(drop).retry; got != (fault.Retry{Max: 2}) {
		t.Errorf("drop-after %#v", got)
	}
}
