package hierdrl

import (
	"fmt"
	"reflect"
	"slices"
	"sync"

	"hierdrl/internal/cluster"
	"hierdrl/internal/fault"
	"hierdrl/internal/global"
	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
	"hierdrl/internal/mat"
	"hierdrl/internal/policy"
	"hierdrl/internal/sim"
)

// Public extension-point types. These are aliases of the engine's own
// interfaces, so a policy registered here runs on the hot path with no
// adapter layer in between (and therefore no per-event interface boxing
// beyond what the engine itself does).
type (
	// Allocator is the global tier's extension point: it picks the target
	// server for every arriving job. The paper's DRL agent, round-robin,
	// random, least-loaded, and pack-fit all implement it.
	Allocator = policy.Allocator
	// PowerManager is the local tier's extension point: one instance runs
	// per server and decides sleep timeouts at each idle decision epoch
	// (OnIdle), classifies arrival epochs (OnArrival), and integrates the
	// local reward signal (Observe).
	PowerManager = cluster.DPMPolicy
	// Predictor forecasts the next job inter-arrival time for the RL power
	// manager (the paper argues for an LSTM; EWMA/last-value/window-mean are
	// the linear-history baselines).
	Predictor = local.ArrivalPredictor
	// FaultModel assigns each server its failure/repair clock. Clocks are
	// derived from (Config.Seed, serverID) alone — never from the run RNG —
	// so fault schedules are independent of the workload.
	FaultModel = fault.Model
	// FailureClock is one server's failure/repair process (see FaultModel).
	FailureClock = fault.Clock
	// RetryPolicy decides whether (and when) a crash-evicted job re-enters
	// the pending queue.
	RetryPolicy = fault.RetryPolicy
	// FailureDomain groups contiguous server IDs into one failure domain
	// (rack/zone) for topology-aware fault models (Config.Domains).
	FailureDomain = fault.Domain

	// ClusterJob is the in-flight form of a job inside the simulator, handed
	// to Allocator.Allocate and the per-job-completion observer. Completed
	// jobs are pooled and renewed — do not retain pointers past the callback.
	ClusterJob = cluster.Job
	// ClusterView is the immutable-by-convention snapshot of cluster state
	// handed to allocators at each decision epoch.
	ClusterView = cluster.View
	// Server exposes one simulated machine to PowerManager implementations.
	Server = cluster.Server
	// PowerState is a server's power mode (sleep/waking/active/shutting-down).
	PowerState = cluster.PowerState
	// Resources is a per-dimension (CPU, memory, disk) resource vector.
	Resources = cluster.Resources
	// Time is simulated time in seconds since the start of the run.
	Time = sim.Time
	// RNG is the deterministic random source threaded through every
	// stochastic component; factories derive independent streams via Split.
	RNG = mat.RNG
)

// Re-exported power modes for PowerManager implementations.
const (
	StateSleep        = cluster.StateSleep
	StateWaking       = cluster.StateWaking
	StateActive       = cluster.StateActive
	StateShuttingDown = cluster.StateShuttingDown
	StateDown         = cluster.StateDown
)

// AllocatorFactory builds one run's allocator. cfg is the validated run
// configuration; rng is the run's RNG — derive any private stream with
// rng.Split() (and nothing else) so runs stay reproducible from Config.Seed.
type AllocatorFactory func(cfg *Config, rng *RNG) (Allocator, error)

// PowerManagerFactory builds one server's power manager; it is invoked once
// per server index in ascending order, all sharing the run RNG.
type PowerManagerFactory func(cfg *Config, serverID int, rng *RNG) (PowerManager, error)

// PredictorFactory builds one workload predictor for an RL power manager.
type PredictorFactory func(cfg *Config, rng *RNG) (Predictor, error)

// FaultModelFactory builds one run's fault model. It deliberately receives no
// RNG: failure clocks must derive all randomness from (cfg.Seed, serverID)
// so the schedule is a pure function of the configuration, independent of
// every other random stream. Returning a nil FaultModel
// (with a nil error) disables fault injection.
type FaultModelFactory func(cfg *Config) (FaultModel, error)

// RetryPolicyFactory builds one run's retry policy.
type RetryPolicyFactory func(cfg *Config) (RetryPolicy, error)

// registry is the one name -> entry table behind every extension point: the
// five policy registries below and the scenario registry (scenario.go).
// Listings are its discovery surface (hiersim -list), so they are sorted
// regardless of registration order.
type registry[K ~string, E any] struct {
	register string // the exported Register* function, named in the misuse panic
	noun     string // what a duplicate-registration panic calls an entry
	kind     string // what an unknown-name error calls an entry

	mu sync.RWMutex
	m  map[K]regEntry[E]
}

// regEntry pairs a registered value with an optional config check that runs
// at validation time (NewSession/Run), so bad configurations fail before any
// simulation state is built. Built-in entries use checks to preserve the
// historical validation errors; externally registered policies typically
// validate inside their factory instead.
type regEntry[E any] struct {
	val   E
	check func(cfg *Config) error
}

func newRegistry[K ~string, E any](register, noun, kind string) *registry[K, E] {
	return &registry[K, E]{register: register, noun: noun, kind: kind, m: map[K]regEntry[E]{}}
}

// add registers name. It panics on an empty name, a nil factory, or a name
// already registered (including the built-ins).
func (r *registry[K, E]) add(name K, val E, check func(*Config) error) {
	if v := reflect.ValueOf(val); name == "" || v.Kind() == reflect.Func && v.IsNil() {
		panic("hierdrl: " + r.register + " with empty name or nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("hierdrl: %s %q already registered", r.noun, name))
	}
	r.m[name] = regEntry[E]{val: val, check: check}
}

// entry resolves name, or fails with the registry's unknown-name error.
func (r *registry[K, E]) entry(name K) (regEntry[E], error) {
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return e, fmt.Errorf("hierdrl: unknown %s %q", r.kind, name)
	}
	return e, nil
}

// lookup resolves name to its registered value.
func (r *registry[K, E]) lookup(name K) (E, error) {
	e, err := r.entry(name)
	return e.val, err
}

// check validates a Config's choice of name: it must be registered, and pass
// the entry's config check if it has one.
func (r *registry[K, E]) check(name K, cfg *Config) error {
	e, err := r.entry(name)
	if err != nil || e.check == nil {
		return err
	}
	return e.check(cfg)
}

// names returns every registered name, sorted.
func (r *registry[K, E]) names() []K {
	r.mu.RLock()
	names := make([]K, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	r.mu.RUnlock()
	slices.Sort(names)
	return names
}

var (
	allocators = newRegistry[AllocPolicy, AllocatorFactory]("RegisterAllocator", "allocator", "allocation policy")
	powerMgrs  = newRegistry[DPMKind, PowerManagerFactory]("RegisterPowerManager", "power manager", "DPM policy")
	predictors = newRegistry[PredictorKind, PredictorFactory]("RegisterPredictor", "predictor", "predictor")
	faultMdls  = newRegistry[FaultKind, FaultModelFactory]("RegisterFaultModel", "fault model", "fault model")
	retryPols  = newRegistry[RetryKind, RetryPolicyFactory]("RegisterRetryPolicy", "retry policy", "retry policy")
)

// RegisterAllocator makes a custom allocation policy resolvable through
// Config.Alloc. It panics on an empty name, a nil factory, or a name already
// registered (including the built-ins).
func RegisterAllocator(name AllocPolicy, build AllocatorFactory) { allocators.add(name, build, nil) }

// RegisterPowerManager makes a custom local-tier policy resolvable through
// Config.DPM. Panics on misuse, like RegisterAllocator.
func RegisterPowerManager(name DPMKind, build PowerManagerFactory) { powerMgrs.add(name, build, nil) }

// RegisterPredictor makes a custom workload predictor resolvable through
// Config.Predictor. Panics on misuse, like RegisterAllocator.
func RegisterPredictor(name PredictorKind, build PredictorFactory) { predictors.add(name, build, nil) }

// RegisterFaultModel makes a custom fault model resolvable through
// Config.Faults. Panics on misuse, like RegisterAllocator.
func RegisterFaultModel(name FaultKind, build FaultModelFactory) { faultMdls.add(name, build, nil) }

// RegisterRetryPolicy makes a custom retry policy resolvable through
// Config.Retry. Panics on misuse, like RegisterAllocator.
func RegisterRetryPolicy(name RetryKind, build RetryPolicyFactory) { retryPols.add(name, build, nil) }

// Allocators returns every registered allocation-policy name, sorted.
func Allocators() []AllocPolicy { return allocators.names() }

// PowerManagers returns every registered power-manager name, sorted.
func PowerManagers() []DPMKind { return powerMgrs.names() }

// Predictors returns every registered predictor name, sorted.
func Predictors() []PredictorKind { return predictors.names() }

// FaultModels returns every registered fault-model name, sorted.
func FaultModels() []FaultKind { return faultMdls.names() }

// RetryPolicies returns every registered retry-policy name, sorted.
func RetryPolicies() []RetryKind { return retryPols.names() }

// EqualDomains splits m servers into n contiguous equal failure domains
// named "dom0".."domN-1" (the first m%n domains absorb the remainder).
// Convenience for driver code building Config.Domains.
func EqualDomains(n, m int) []FailureDomain { return fault.EqualDomains(n, m) }

// domainSpec resolves the failure-domain partition for FaultCorrelatedCrash:
// an explicit Config.Domains wins, then one domain per heterogeneous server
// class (classes are contiguous ID ranges, the natural rack analogue), then
// the whole cluster as a single domain.
func domainSpec(cfg *Config) []fault.Domain {
	if len(cfg.Domains) > 0 {
		return cfg.Domains
	}
	if len(cfg.Cluster.Classes) > 0 {
		out := make([]fault.Domain, len(cfg.Cluster.Classes))
		for i, cl := range cfg.Cluster.Classes {
			out[i] = fault.Domain{Name: cl.Name, Count: cl.Count}
		}
		return out
	}
	return fault.EqualDomains(1, cfg.M)
}

// degradeFactor resolves FaultDegrade's speed multiplier (default 0.25).
func degradeFactor(cfg *Config) float64 {
	if cfg.DegradeFactor == 0 {
		return 0.25
	}
	return cfg.DegradeFactor
}

// drainSpec resolves FaultDrain's period and window (defaults 14400s / 600s).
func drainSpec(cfg *Config) (everySec, windowSec float64) {
	everySec, windowSec = cfg.DrainEverySec, cfg.DrainWindowSec
	if everySec == 0 {
		everySec = 14400
	}
	if windowSec == 0 {
		windowSec = 600
	}
	return everySec, windowSec
}

// buildFaultLayer resolves the fault model and retry policy for one session.
// A nil model (FaultNone, or any factory returning nil) disables the whole
// subsystem; the retry policy is only built alongside a live model.
func buildFaultLayer(cfg *Config) (FaultModel, RetryPolicy, error) {
	buildFM, err := faultMdls.lookup(cfg.Faults)
	if err != nil {
		return nil, nil, err
	}
	fm, err := buildFM(cfg)
	if err != nil || fm == nil {
		return nil, nil, err
	}
	buildRP, err := retryPols.lookup(cfg.Retry)
	if err != nil {
		return nil, nil, err
	}
	rp, err := buildRP(cfg)
	if err != nil {
		return nil, nil, err
	}
	if rp == nil {
		return nil, nil, fmt.Errorf("hierdrl: retry policy %q built nil", cfg.Retry)
	}
	return fm, rp, nil
}

// buildAllocator resolves the global tier for one session. The DRL policy is
// the one allocator the registry cannot build: its agent belongs to (and
// persists across the passes of) the session, so the session injects it here.
func buildAllocator(cfg *Config, agent *global.Agent, rng *RNG) (Allocator, error) {
	if cfg.Alloc == AllocDRL {
		if agent == nil {
			return nil, fmt.Errorf("hierdrl: DRL allocation without an agent")
		}
		return agent, nil
	}
	build, err := allocators.lookup(cfg.Alloc)
	if err != nil {
		return nil, err
	}
	return build(cfg, rng)
}

// buildPowerManager resolves one server's local tier through the registry.
func buildPowerManager(cfg *Config, serverID int, rng *RNG) (PowerManager, error) {
	build, err := powerMgrs.lookup(cfg.DPM)
	if err != nil {
		return nil, err
	}
	return build(cfg, serverID, rng)
}

// buildPredictor resolves a workload predictor through the registry.
func buildPredictor(cfg *Config, rng *RNG) (Predictor, error) {
	build, err := predictors.lookup(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	return build(cfg, rng)
}

// Built-in policies register through the same machinery external code uses,
// so AllocPolicy/DPMKind/PredictorKind strings all resolve one way. The RNG
// split order inside each factory is part of the reproducibility contract:
// it matches the historical construction order bit for bit.
func init() {
	allocators.add(AllocRoundRobin, func(*Config, *RNG) (Allocator, error) {
		return policy.NewRoundRobin(), nil
	}, nil)
	allocators.add(AllocRandom, func(_ *Config, rng *RNG) (Allocator, error) {
		return policy.NewRandom(rng.Split()), nil
	}, nil)
	allocators.add(AllocLeastLoaded, func(*Config, *RNG) (Allocator, error) {
		return policy.NewLeastLoaded(), nil
	}, nil)
	allocators.add(AllocPackFit, func(*Config, *RNG) (Allocator, error) {
		return policy.NewPackFit(0.05)
	}, nil)
	allocators.add(AllocDRL, func(*Config, *RNG) (Allocator, error) {
		return nil, fmt.Errorf("hierdrl: the DRL allocator is built by its session (it owns the learning agent)")
	}, func(cfg *Config) error {
		if err := cfg.Global.Validate(cfg.M); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		return nil
	})

	powerMgrs.add(DPMAlwaysOn, func(*Config, int, *RNG) (PowerManager, error) {
		return local.AlwaysOn{}, nil
	}, nil)
	powerMgrs.add(DPMAdHoc, func(*Config, int, *RNG) (PowerManager, error) {
		return local.AdHoc{}, nil
	}, nil)
	powerMgrs.add(DPMFixedTimeout, func(cfg *Config, _ int, _ *RNG) (PowerManager, error) {
		return local.NewFixedTimeout(cfg.FixedTimeoutSec), nil
	}, func(cfg *Config) error {
		if cfg.FixedTimeoutSec < 0 {
			return fmt.Errorf("hierdrl: negative fixed timeout %v", cfg.FixedTimeoutSec)
		}
		return nil
	})
	powerMgrs.add(DPMRL, func(cfg *Config, _ int, rng *RNG) (PowerManager, error) {
		pred, err := buildPredictor(cfg, rng)
		if err != nil {
			return nil, err
		}
		return local.NewRLTimeout(cfg.LocalRL, pred, rng.Split())
	}, func(cfg *Config) error {
		if err := cfg.LocalRL.Validate(); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		if cfg.Predictor == "" {
			cfg.Predictor = PredictorLSTM
		}
		return predictors.check(cfg.Predictor, cfg)
	})

	predictors.add(PredictorLSTM, func(cfg *Config, rng *RNG) (Predictor, error) {
		return lstm.NewPredictor(cfg.LSTMPredictor, rng.Split()), nil
	}, func(cfg *Config) error {
		// A zero Lookback means "take the defaults": validate fills them in.
		if cfg.LSTMPredictor.Lookback == 0 {
			return nil
		}
		if err := cfg.LSTMPredictor.Validate(); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		return nil
	})
	RegisterPredictor(PredictorEWMA, func(*Config, *RNG) (Predictor, error) {
		return local.NewEWMA(0.3), nil
	})
	RegisterPredictor(PredictorLastValue, func(*Config, *RNG) (Predictor, error) {
		return local.NewLastValue(), nil
	})
	RegisterPredictor(PredictorWindowMean, func(*Config, *RNG) (Predictor, error) {
		return local.NewWindowMean(10), nil
	})

	faultMdls.add(FaultNone, func(*Config) (FaultModel, error) {
		return nil, nil
	}, nil)
	faultMdls.add(FaultExpCrash, func(cfg *Config) (FaultModel, error) {
		return fault.NewExpCrash(cfg.Seed, cfg.MTTFSec, cfg.MTTRSec)
	}, func(cfg *Config) error {
		if _, err := fault.NewExpCrash(cfg.Seed, cfg.MTTFSec, cfg.MTTRSec); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		return nil
	})
	faultMdls.add(FaultCorrelatedCrash, func(cfg *Config) (FaultModel, error) {
		return fault.NewCorrelatedCrash(cfg.Seed, domainSpec(cfg), cfg.M, cfg.MTTFSec, cfg.MTTRSec)
	}, func(cfg *Config) error {
		// The check runs before the cluster default is derived, so only an
		// explicit Domains override is validated here; class-derived domains
		// are covered by Cluster.Validate (counts must sum to M either way).
		if len(cfg.Domains) > 0 {
			if err := fault.ValidateDomains(cfg.Domains, cfg.M); err != nil {
				return fmt.Errorf("hierdrl: %w", err)
			}
		}
		if _, err := fault.NewExpCrash(cfg.Seed, cfg.MTTFSec, cfg.MTTRSec); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		return nil
	})
	faultMdls.add(FaultDegrade, func(cfg *Config) (FaultModel, error) {
		return fault.NewFailSlow(cfg.Seed, degradeFactor(cfg), cfg.MTTFSec, cfg.MTTRSec)
	}, func(cfg *Config) error {
		if _, err := fault.NewFailSlow(cfg.Seed, degradeFactor(cfg), cfg.MTTFSec, cfg.MTTRSec); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		return nil
	})
	faultMdls.add(FaultDrain, func(cfg *Config) (FaultModel, error) {
		every, window := drainSpec(cfg)
		return fault.NewMaintenanceDrain(every, window, cfg.M)
	}, func(cfg *Config) error {
		every, window := drainSpec(cfg)
		if _, err := fault.NewMaintenanceDrain(every, window, cfg.M); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		return nil
	})

	retryPols.add(RetryImmediate, func(*Config) (RetryPolicy, error) {
		return fault.Immediate{}, nil
	}, nil)
	retryPols.add(RetryBackoff, func(cfg *Config) (RetryPolicy, error) {
		base, capSec := cfg.RetryBackoffSec, cfg.RetryBackoffCapSec
		if base == 0 {
			base = 30
		}
		if capSec == 0 {
			capSec = 600
		}
		return fault.NewBackoff(base, capSec, cfg.RetryMax)
	}, func(cfg *Config) error {
		base, capSec := cfg.RetryBackoffSec, cfg.RetryBackoffCapSec
		if base == 0 {
			base = 30
		}
		if capSec == 0 {
			capSec = 600
		}
		if _, err := fault.NewBackoff(base, capSec, cfg.RetryMax); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		return nil
	})
	retryPols.add(RetryDropAfter, func(cfg *Config) (RetryPolicy, error) {
		return fault.DropAfter{Max: cfg.RetryMax}, nil
	}, func(cfg *Config) error {
		if cfg.RetryMax <= 0 {
			return fmt.Errorf("hierdrl: retry policy %q needs RetryMax > 0, got %d", RetryDropAfter, cfg.RetryMax)
		}
		return nil
	})
}
