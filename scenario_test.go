package hierdrl_test

import (
	"bytes"
	"reflect"
	"testing"

	"hierdrl"
)

// scenarioTestConfig returns the reduced operating point the scenario suite
// runs at: least-loaded dispatch over a 60s fixed-timeout local tier.
func scenarioTestConfig(sc hierdrl.Scenario) hierdrl.Config {
	cfg := hierdrl.Config{
		Name:            "scenario-" + sc.Name,
		Seed:            1,
		Alloc:           hierdrl.AllocLeastLoaded,
		DPM:             hierdrl.DPMFixedTimeout,
		FixedTimeoutSec: 60,
	}
	sc.ApplyTo(&cfg)
	return cfg
}

// TestScenarioBitwiseAcrossShards pins the scenario determinism contract for
// every registered scenario at a reduced size: the Summary is bitwise
// identical run to run. This is the `make scenario-smoke` gate.
func TestScenarioBitwiseAcrossShards(t *testing.T) {
	for _, name := range hierdrl.Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, ok := hierdrl.LookupScenario(name)
			if !ok {
				t.Fatalf("registered scenario %q not resolvable", name)
			}
			sc = sc.Scaled(16, 400)
			cfg := scenarioTestConfig(sc)
			var ref *hierdrl.Result
			for run := 0; run < 2; run++ {
				src, err := sc.Source(cfg.Seed)
				if err != nil {
					t.Fatalf("source: %v", err)
				}
				res, err := hierdrl.RunSource(cfg, src)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				if ref == nil {
					ref = res
					continue
				}
				if !reflect.DeepEqual(res.Summary, ref.Summary) {
					t.Errorf("run %d summary diverged:\n got %+v\nwant %+v",
						run, res.Summary, ref.Summary)
				}
			}
		})
	}
}

// TestScenarioCSVRoundTrip pins the tracegen -scenario pathway: a scenario
// workload written to CSV and replayed through SubmitTrace produces the
// exact run of the streamed source — the CSV encoding is value-preserving
// and the batch and streaming ingestion paths are equivalent, bitwise.
func TestScenarioCSVRoundTrip(t *testing.T) {
	for _, name := range []string{"heavytail", "mixed-het"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, ok := hierdrl.LookupScenario(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			sc = sc.Scaled(12, 300)
			cfg := scenarioTestConfig(sc)

			src, err := sc.Source(cfg.Seed)
			if err != nil {
				t.Fatalf("source: %v", err)
			}
			streamed, err := hierdrl.RunSource(cfg, src)
			if err != nil {
				t.Fatalf("streamed run: %v", err)
			}

			// tracegen -scenario: write the same workload to CSV...
			gen, err := sc.Source(cfg.Seed)
			if err != nil {
				t.Fatalf("source: %v", err)
			}
			var buf bytes.Buffer
			if err := hierdrl.WriteTraceCSVStream(&buf, gen.Next); err != nil {
				t.Fatalf("write csv: %v", err)
			}
			// ...replay it through the batch SubmitTrace path.
			tr, err := hierdrl.ReadTraceCSV(&buf)
			if err != nil {
				t.Fatalf("read csv: %v", err)
			}
			replayed, err := hierdrl.Run(cfg, tr)
			if err != nil {
				t.Fatalf("replayed run: %v", err)
			}
			if !reflect.DeepEqual(replayed.Summary, streamed.Summary) {
				t.Errorf("CSV replay diverged from streamed source:\n got %+v\nwant %+v",
					replayed.Summary, streamed.Summary)
			}
		})
	}
}

// TestHomogeneousClassesBitwiseIdentical pins the heterogeneity layer's
// compatibility guarantee: a single server class at speed 1.0 with the
// default power curve is the homogeneous cluster, bit for bit.
func TestHomogeneousClassesBitwiseIdentical(t *testing.T) {
	m := 8
	tr := hierdrl.SyntheticTraceForCluster(500, m, 7)

	base := hierdrl.RoundRobin(m)
	base.Name = "least-loaded"
	base.Alloc = hierdrl.AllocLeastLoaded
	base.DPM = hierdrl.DPMFixedTimeout
	base.FixedTimeoutSec = 60
	plain, err := hierdrl.Run(base, tr)
	if err != nil {
		t.Fatal(err)
	}

	classed := base
	classed.Cluster = hierdrl.DefaultClusterConfig(m)
	classed.Cluster.Classes = []hierdrl.ServerClass{{Name: "all", Count: m, Speed: 1.0}}
	viaClasses, err := hierdrl.Run(classed, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Summary, viaClasses.Summary) {
		t.Errorf("single-class speed-1.0 cluster diverged from homogeneous:\n got %+v\nwant %+v",
			viaClasses.Summary, plain.Summary)
	}
	if plain.Summary.Wakeups != viaClasses.Summary.Wakeups || plain.Summary.Shutdowns != viaClasses.Summary.Shutdowns {
		t.Errorf("transition counts diverged: %d/%d vs %d/%d",
			viaClasses.Summary.Wakeups, viaClasses.Summary.Shutdowns, plain.Summary.Wakeups, plain.Summary.Shutdowns)
	}
}

// TestHeterogeneousSpeedShortensService sanity-checks the speed semantics
// end to end: a uniformly faster cluster completes the same workload with
// strictly lower accumulated latency.
func TestHeterogeneousSpeedShortensService(t *testing.T) {
	m := 8
	tr := hierdrl.SyntheticTraceForCluster(400, m, 11)
	base := hierdrl.RoundRobin(m)
	base.Alloc = hierdrl.AllocLeastLoaded

	slow := base
	slowRes, err := hierdrl.Run(slow, tr)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.Cluster = hierdrl.DefaultClusterConfig(m)
	fast.Cluster.Classes = []hierdrl.ServerClass{{Name: "turbo", Count: m, Speed: 2.0}}
	fastRes, err := hierdrl.Run(fast, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.Summary.AccLatencySec >= slowRes.Summary.AccLatencySec {
		t.Errorf("2x faster cluster did not cut accumulated latency: %v vs %v",
			fastRes.Summary.AccLatencySec, slowRes.Summary.AccLatencySec)
	}
}

// TestScenarioScaledLayout pins Scaled's class redistribution: counts always
// sum to the new M and every class keeps at least one machine when possible.
func TestScenarioScaledLayout(t *testing.T) {
	sc, ok := hierdrl.LookupScenario("mixed-het")
	if !ok {
		t.Fatal("mixed-het not registered")
	}
	for _, m := range []int{3, 7, 16, 30, 100} {
		scaled := sc.Scaled(m, 100)
		total := 0
		for _, c := range scaled.Classes {
			if c.Count < 1 {
				t.Errorf("m=%d: class %q scaled to %d machines", m, c.Name, c.Count)
			}
			total += c.Count
		}
		if total != m {
			t.Errorf("m=%d: class counts sum to %d", m, total)
		}
		if err := scaled.Validate(); err != nil {
			t.Errorf("m=%d: scaled scenario invalid: %v", m, err)
		}
	}
}

// TestScenarioValidateBuildsFaults pins that Scenario.Validate builds the
// scenario's fault family the way a run does: fault settings that would fail
// only at NewSession are rejected up front, with the run's own error text
// under a single "hierdrl:" prefix, and every built-in scenario still
// validates.
func TestScenarioValidateBuildsFaults(t *testing.T) {
	steady, ok := hierdrl.LookupScenario("steady")
	if !ok {
		t.Fatal("steady not registered")
	}
	for _, c := range []struct {
		name string
		edit func(*hierdrl.Scenario)
		want string
	}{
		{"exp-crash MTTF 0", func(s *hierdrl.Scenario) {
			s.Faults, s.MTTFSec, s.MTTRSec = hierdrl.FaultExpCrash, 0, 600
		}, `hierdrl: scenario "steady": fault: MTTF 0 must be positive and finite`},
		{"drain window -5", func(s *hierdrl.Scenario) {
			s.Faults, s.DrainWindowSec = hierdrl.FaultDrain, -5
		}, `hierdrl: scenario "steady": fault: drain window -5 must be positive and finite`},
		{"degrade factor 1.5", func(s *hierdrl.Scenario) {
			s.Faults, s.MTTFSec, s.MTTRSec, s.DegradeFactor = hierdrl.FaultDegrade, 20000, 600, 1.5
		}, `hierdrl: scenario "steady": fault: degrade factor 1.5 must be in (0, 1)`},
		{"unknown fault model", func(s *hierdrl.Scenario) {
			s.Faults = "bit-rot"
		}, `hierdrl: scenario "steady": unknown fault model "bit-rot"`},
		{"unknown retry policy", func(s *hierdrl.Scenario) {
			s.Retry = "exponentail"
		}, `hierdrl: scenario "steady": unknown retry policy "exponentail"`},
	} {
		sc := steady
		c.edit(&sc)
		if err := sc.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %q", c.name, err, c.want)
		}
	}
	for _, name := range hierdrl.Scenarios() {
		sc, _ := hierdrl.LookupScenario(name)
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in %s: %v", name, err)
		}
	}
}

// TestRegistryListers pins the discovery surface behind hiersim -list: the
// listers return sorted names including every built-in.
func TestRegistryListers(t *testing.T) {
	contains := func(names []string, want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	sorted := func(names []string) bool {
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				return false
			}
		}
		return true
	}

	var allocs []string
	for _, a := range hierdrl.Allocators() {
		allocs = append(allocs, string(a))
	}
	var pms []string
	for _, p := range hierdrl.PowerManagers() {
		pms = append(pms, string(p))
	}
	scens := hierdrl.Scenarios()

	if !sorted(allocs) || !sorted(pms) || !sorted(scens) {
		t.Errorf("lister output not sorted: %v %v %v", allocs, pms, scens)
	}
	for _, want := range []string{"round-robin", "random", "least-loaded", "pack-fit", "drl"} {
		if !contains(allocs, want) {
			t.Errorf("Allocators() missing %q: %v", want, allocs)
		}
	}
	for _, want := range []string{"steady", "diurnal", "flashcrowd", "heavytail",
		"burst-mmpp", "ramp", "mixed-het", "scale-10k-diurnal"} {
		if !contains(scens, want) {
			t.Errorf("Scenarios() missing %q: %v", want, scens)
		}
	}
	if len(scens) < 8 {
		t.Errorf("want >= 8 registered scenarios, got %d", len(scens))
	}
}
