package hierdrl

import (
	"fmt"

	"hierdrl/internal/cluster"
	"hierdrl/internal/trace"
	"hierdrl/internal/workload"
)

// Re-exported workload-composition types, so scenarios are declared against
// the public API without importing internal packages. See internal/workload
// for the composition model and the determinism contract.
type (
	// WorkloadConfig is a declarative workload: a base arrival-rate layer,
	// multiplicative modulators, and a job-class mix.
	WorkloadConfig = workload.Config
	// WorkloadBase is the base arrival-rate layer (constant/diurnal/ramp).
	WorkloadBase = workload.Base
	// WorkloadModulator is one multiplicative rate layer (MMPP burst or
	// flash-crowd spike).
	WorkloadModulator = workload.Modulator
	// WorkloadClass is one job class: a mix weight plus duration and demand
	// distributions.
	WorkloadClass = workload.Class
	// WorkloadDist is a scalar distribution (fixed/exponential/Pareto/
	// lognormal).
	WorkloadDist = workload.Dist
	// WorkloadSource generates a WorkloadConfig's jobs one at a time; it
	// implements JobSource.
	WorkloadSource = workload.Source
	// JobSource is the pull-based job producer the streaming runners accept
	// (RunSource): Next returns jobs in arrival order until ok is false.
	JobSource = trace.Source
	// ServerClass declares one heterogeneous slice of the cluster: Count
	// machines sharing a speed factor and power curve (Config.Cluster.Classes).
	ServerClass = cluster.ServerClass
	// PowerModel maps server activity to watts (per-class power curves).
	PowerModel = cluster.PowerModel
)

// Re-exported workload composition kinds.
const (
	BaseConstant = workload.BaseConstant
	BaseDiurnal  = workload.BaseDiurnal
	BaseRamp     = workload.BaseRamp

	ModMMPP  = workload.ModMMPP
	ModFlash = workload.ModFlash

	DistFixed       = workload.DistFixed
	DistExponential = workload.DistExponential
	DistPareto      = workload.DistPareto
	DistLogNormal   = workload.DistLogNormal
)

// Scenario is a named, self-contained evaluation setting: a cluster size
// (optionally heterogeneous) plus a declarative workload. A scenario's job
// sequence is a pure function of (seed, Scenario) — bitwise reproducible run
// to run.
type Scenario struct {
	// Name resolves the scenario in the registry (hiersim -scenario).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// M is the cluster size the workload is calibrated for.
	M int
	// Workload declares the job generator.
	Workload WorkloadConfig
	// Classes optionally declares heterogeneous server classes (counts must
	// sum to M); empty means the homogeneous default cluster.
	Classes []ServerClass
	// Faults optionally enables a fault model for the scenario
	// (empty = fault-free). A fault-enabled scenario replaces the run
	// config's fault family wholesale in ApplyTo, so the scenario stays a
	// self-contained, reproducible evaluation setting.
	Faults FaultKind
	// MTTFSec/MTTRSec parameterize the crash and degrade fault clocks.
	MTTFSec float64
	MTTRSec float64
	// Domains partitions the cluster into failure domains for
	// correlated-crash (empty = derived from Classes, else one domain).
	Domains []FailureDomain
	// DegradeFactor is the fail-slow speed multiplier (0 = default 0.25).
	DegradeFactor float64
	// DrainEverySec/DrainWindowSec parameterize maintenance-drain windows
	// (0 = defaults 14400 s / 600 s).
	DrainEverySec  float64
	DrainWindowSec float64
	// Retry picks the requeue policy for evicted/migrated jobs (empty keeps
	// the run config's policy).
	Retry RetryKind
}

// Validate checks the scenario's workload and cluster declaration, and
// builds its fault family the way a run would, so a scenario that validates
// also starts. RetryMax comes from the run config, so the check assumes 1.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("hierdrl: scenario with empty name")
	}
	if s.M <= 0 {
		return fmt.Errorf("hierdrl: scenario %q: M must be positive, got %d", s.Name, s.M)
	}
	if err := s.Workload.Validate(); err != nil {
		return fmt.Errorf("hierdrl: scenario %q: %w", s.Name, err)
	}
	cc := cluster.DefaultConfig(s.M)
	cc.Classes = s.Classes
	if err := cc.Validate(); err != nil {
		return fmt.Errorf("hierdrl: scenario %q: %w", s.Name, err)
	}
	cfg := Config{Faults: FaultNone, Retry: RetryImmediate, RetryMax: 1}
	s.ApplyTo(&cfg)
	if _, err := buildFaultLayer(&cfg); err != nil {
		return fmt.Errorf("hierdrl: scenario %q: %w", s.Name, err)
	}
	return nil
}

// Source compiles the scenario's workload into a streaming job generator.
func (s Scenario) Source(seed int64) (*WorkloadSource, error) {
	src, err := workload.NewSource(s.Workload, seed)
	if err != nil {
		return nil, fmt.Errorf("hierdrl: scenario %q: %w", s.Name, err)
	}
	return src, nil
}

// Scaled returns the scenario resized to m servers and jobs jobs (either
// argument <= 0 keeps the original). Arrival rates scale by m/M so the
// relative offered load is preserved, and heterogeneous class counts are
// redistributed proportionally (largest-remainder rounding, every class
// keeping at least one machine when m allows).
func (s Scenario) Scaled(m, jobs int) Scenario {
	if jobs > 0 {
		s.Workload.NumJobs = jobs
	}
	if m <= 0 || m == s.M {
		return s
	}
	f := float64(m) / float64(s.M)
	s.Workload.Base.Rate *= f
	s.Workload.Base.EndRate *= f
	if len(s.Classes) > 0 {
		s.Classes = scaleServerClasses(s.Classes, m)
	}
	if len(s.Domains) > 0 {
		s.Domains = scaleFailureDomains(s.Domains, m)
	}
	s.M = m
	return s
}

// ApplyTo configures cfg to run this scenario: the cluster size, for
// heterogeneous scenarios the server-class layout, and for fault-enabled
// scenarios the whole fault family (model, clocks, domains, drain/degrade
// parameters, and — when declared — the retry policy). Any prior Cluster
// override is replaced; fault flags are replaced only when the scenario
// declares a fault model, so fault-free scenarios still compose with
// externally configured fault injection.
func (s Scenario) ApplyTo(cfg *Config) {
	cfg.M = s.M
	if len(s.Classes) > 0 {
		cc := cluster.DefaultConfig(s.M)
		cc.Classes = s.Classes
		cfg.Cluster = cc
	} else {
		cfg.Cluster = cluster.Config{}
	}
	if s.Faults != "" {
		cfg.Faults = s.Faults
		cfg.MTTFSec = s.MTTFSec
		cfg.MTTRSec = s.MTTRSec
		cfg.Domains = s.Domains
		cfg.DegradeFactor = s.DegradeFactor
		cfg.DrainEverySec = s.DrainEverySec
		cfg.DrainWindowSec = s.DrainWindowSec
	}
	if s.Retry != "" {
		cfg.Retry = s.Retry
	}
}

// scaleCounts redistributes counts proportionally onto a total of m with
// largest-remainder rounding, keeping every entry at least 1 when m allows.
func scaleCounts(counts []int, m int) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]int, len(counts))
	rem := make([]float64, len(counts))
	sum := 0
	for i, c := range counts {
		ideal := float64(c) * float64(m) / float64(total)
		out[i] = int(ideal)
		rem[i] = ideal - float64(out[i])
		sum += out[i]
	}
	for ; sum < m; sum++ {
		best := 0
		for i := 1; i < len(rem); i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		out[best]++
		rem[best] = -1
	}
	for i := range out {
		if out[i] == 0 && m >= len(out) {
			big := 0
			for j := range out {
				if out[j] > out[big] {
					big = j
				}
			}
			out[big]--
			out[i]++
		}
	}
	return out
}

// scaleServerClasses redistributes class counts proportionally onto m
// servers with largest-remainder rounding.
func scaleServerClasses(classes []ServerClass, m int) []ServerClass {
	counts := make([]int, len(classes))
	for i, c := range classes {
		counts[i] = c.Count
	}
	counts = scaleCounts(counts, m)
	out := make([]ServerClass, len(classes))
	for i, c := range classes {
		out[i] = c
		out[i].Count = counts[i]
	}
	return out
}

// scaleFailureDomains redistributes failure-domain counts proportionally
// onto m servers, the same way server classes rescale, so a fault-enabled
// scenario keeps its rack topology shape at any cluster size. When m is
// smaller than the number of domains the partition collapses to equal
// domains over min(len, m) racks (every domain must keep >= 1 server).
func scaleFailureDomains(domains []FailureDomain, m int) []FailureDomain {
	if m < len(domains) {
		return EqualDomains(m, m)
	}
	counts := make([]int, len(domains))
	for i, d := range domains {
		counts[i] = d.Count
	}
	counts = scaleCounts(counts, m)
	out := make([]FailureDomain, len(domains))
	for i, d := range domains {
		out[i] = d
		out[i].Count = counts[i]
	}
	return out
}

var scenarios = newRegistry[string, Scenario]("RegisterScenario", "scenario", "scenario")

// RegisterScenario adds a named scenario to the registry (the same pattern
// as RegisterAllocator). It panics on an invalid scenario or a name already
// registered, including the built-ins.
func RegisterScenario(s Scenario) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	scenarios.add(s.Name, s)
}

// Scenarios returns every registered scenario name in sorted order.
func Scenarios() []string { return scenarios.names() }

// LookupScenario resolves a registered scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	s, err := scenarios.lookup(name)
	return s, err == nil
}

// The built-in scenarios' calibration is the paper workload's at M = 30:
// refRate is its mean arrival rate (~95,000 jobs over one simulated week)
// and googleClass its one job class.
var (
	refRate     = PaperWorkload(0, 30).Base.Rate
	googleClass = PaperWorkload(0, 30).Classes[0]
)

// Built-in scenarios. Rates are calibrated at M=30 so the offered CPU load
// stays near the paper's ~20% operating point (the scale-10k scenario scales
// the same calibration to 10,000 servers); EXPERIMENTS.md tabulates the
// measured sweep. Like the policy registries, built-ins register through the
// same machinery external scenarios use.
func init() {
	RegisterScenario(Scenario{
		Name:        "steady",
		Description: "homogeneous Poisson arrivals at the paper's mean rate, Google-style jobs",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseConstant, Rate: refRate},
			Classes: []WorkloadClass{googleClass},
		},
	})
	RegisterScenario(Scenario{
		Name:        "diurnal",
		Description: "sinusoidal day/night arrival swing (amplitude 0.35) over Google-style jobs",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseDiurnal, Rate: refRate, Amplitude: 0.35},
			Classes: []WorkloadClass{googleClass},
		},
	})
	RegisterScenario(Scenario{
		Name:        "flashcrowd",
		Description: "diurnal base with a daily 6x flash-crowd spike (5 min ramp, 15 min hold, 30 min decay)",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseDiurnal, Rate: 0.9 * refRate, Amplitude: 0.25},
			Mods: []WorkloadModulator{{
				Kind: ModFlash, AtSec: 6 * 3600, Peak: 6,
				RampUpSec: 300, HoldSec: 900, DecaySec: 1800, RepeatEverySec: 86400,
			}},
			Classes: []WorkloadClass{googleClass},
		},
	})
	RegisterScenario(Scenario{
		Name:        "heavytail",
		Description: "mice/elephants mix: 95% short exponential jobs, 5% Pareto(1.3) heavy-tail elephants",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseConstant, Rate: 0.54},
			Classes: []WorkloadClass{
				{
					Name:           "mice",
					Weight:         0.95,
					Duration:       WorkloadDist{Kind: DistExponential, Mean: 180},
					CPU:            WorkloadDist{Kind: DistLogNormal, Median: 0.02, Sigma: 0.5},
					MemCorrelation: 0.7,
					Disk:           WorkloadDist{Kind: DistLogNormal, Median: 0.008, Sigma: 0.5},
				},
				{
					Name:           "elephants",
					Weight:         0.05,
					Duration:       WorkloadDist{Kind: DistPareto, Alpha: 1.3, Xm: 600},
					CPU:            WorkloadDist{Kind: DistLogNormal, Median: 0.08, Sigma: 0.6},
					MemCorrelation: 0.8,
					Disk:           WorkloadDist{Kind: DistLogNormal, Median: 0.02, Sigma: 0.6},
				},
			},
		},
	})
	RegisterScenario(Scenario{
		Name:        "burst-mmpp",
		Description: "two stacked MMPP burst layers (2.5x sharp bursts + 1.5x rolling surges) over a constant base",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseConstant, Rate: 0.87 * refRate},
			Mods: []WorkloadModulator{
				{Kind: ModMMPP, Factor: 2.5, MeanEverySec: 2 * 3600, MeanLenSec: 240},
				{Kind: ModMMPP, Factor: 1.5, MeanEverySec: 2700, MeanLenSec: 600},
			},
			Classes: []WorkloadClass{googleClass},
		},
	})
	RegisterScenario(Scenario{
		Name:        "ramp",
		Description: "linear load growth from 0.3x to 1.5x the mean rate over three days, then sustained",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base: WorkloadBase{
				// 0.3x: refRate*3/10 is the rate the pinned scenario tables
				// were recorded at; 0.3*refRate rounds one ulp lower.
				Kind: BaseRamp, Rate: refRate * 3 / 10,
				EndRate: 1.5 * refRate, RampSec: 3 * 86400,
			},
			Classes: []WorkloadClass{googleClass},
		},
	})
	RegisterScenario(Scenario{
		Name:        "mixed-het",
		Description: "interactive/batch/analytics mix on a heterogeneous eco/std/turbo cluster",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseDiurnal, Rate: 0.115, Amplitude: 0.3},
			Classes: []WorkloadClass{
				{
					Name:           "interactive",
					Weight:         0.6,
					Duration:       WorkloadDist{Kind: DistExponential, Mean: 120},
					CPU:            WorkloadDist{Kind: DistLogNormal, Median: 0.015, Sigma: 0.5},
					MemCorrelation: 0.6,
					Disk:           WorkloadDist{Kind: DistLogNormal, Median: 0.005, Sigma: 0.5},
				},
				{
					Name:           "batch",
					Weight:         0.3,
					Duration:       WorkloadDist{Kind: DistLogNormal, Median: 1200, Sigma: 0.6},
					CPU:            WorkloadDist{Kind: DistLogNormal, Median: 0.05, Sigma: 0.6},
					MemCorrelation: 0.8,
					Disk:           WorkloadDist{Kind: DistLogNormal, Median: 0.02, Sigma: 0.6},
				},
				{
					Name:           "analytics",
					Weight:         0.1,
					Duration:       WorkloadDist{Kind: DistPareto, Alpha: 1.5, Xm: 900},
					CPU:            WorkloadDist{Kind: DistLogNormal, Median: 0.12, Sigma: 0.5},
					MemCorrelation: 0.9,
					Disk:           WorkloadDist{Kind: DistLogNormal, Median: 0.05, Sigma: 0.6},
				},
			},
		},
		Classes: []ServerClass{
			{Name: "eco", Count: 10, Speed: 0.7, Power: PowerModel{IdleW: 60, PeakW: 100, TransitionW: 100}},
			{Name: "std", Count: 12, Speed: 1.0, Power: PowerModel{IdleW: 87, PeakW: 145, TransitionW: 145}},
			{Name: "turbo", Count: 8, Speed: 1.5, Power: PowerModel{IdleW: 110, PeakW: 220, TransitionW: 220}},
		},
	})
	RegisterScenario(Scenario{
		Name:        "rack-outage",
		Description: "steady load with correlated rack failures: 5 racks of 6, whole racks crash together",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseConstant, Rate: refRate},
			Classes: []WorkloadClass{googleClass},
		},
		Faults:  FaultCorrelatedCrash,
		MTTFSec: 40000,
		MTTRSec: 900,
		Domains: []FailureDomain{
			{Name: "rack0", Count: 6}, {Name: "rack1", Count: 6}, {Name: "rack2", Count: 6},
			{Name: "rack3", Count: 6}, {Name: "rack4", Count: 6},
		},
		Retry: RetryBackoff,
	})
	RegisterScenario(Scenario{
		Name:        "fail-slow",
		Description: "diurnal load with fail-slow stragglers: servers degrade to 35% speed, repair restores",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseDiurnal, Rate: refRate, Amplitude: 0.35},
			Classes: []WorkloadClass{googleClass},
		},
		Faults:        FaultDegrade,
		MTTFSec:       20000,
		MTTRSec:       1800,
		DegradeFactor: 0.35,
	})
	RegisterScenario(Scenario{
		Name:        "patch-window",
		Description: "steady load under rolling maintenance: each server drains for 10 min every 6 h",
		M:           30,
		Workload: WorkloadConfig{
			NumJobs: 20000,
			Base:    WorkloadBase{Kind: BaseConstant, Rate: refRate},
			Classes: []WorkloadClass{googleClass},
		},
		Faults:         FaultDrain,
		DrainEverySec:  21600,
		DrainWindowSec: 600,
		Retry:          RetryImmediate,
	})
	RegisterScenario(Scenario{
		Name:        "scale-10k-diurnal",
		Description: "the scale-10k operating point under a diurnal swing: 10,000 servers, 2M streamed jobs",
		M:           10000,
		Workload: WorkloadConfig{
			NumJobs: 2_000_000,
			Base:    WorkloadBase{Kind: BaseDiurnal, Rate: refRate * 10000 / 30, Amplitude: 0.35},
			Classes: []WorkloadClass{googleClass},
		},
	})
}
