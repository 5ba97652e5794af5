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

// registry is the one name -> value table behind every open extension point:
// allocators, power managers (below) and scenarios (scenario.go). Listings
// are its discovery surface (hiersim -list), so they are sorted regardless
// of registration order.
type registry[K ~string, E any] struct {
	register string // the exported Register* function, named in the misuse panic
	noun     string // what a duplicate-registration panic calls an entry
	kind     string // what an unknown-name error calls an entry

	mu sync.RWMutex
	m  map[K]E
}

func newRegistry[K ~string, E any](register, noun, kind string) *registry[K, E] {
	return &registry[K, E]{register: register, noun: noun, kind: kind, m: map[K]E{}}
}

// add registers name. It panics on an empty name, a nil factory, or a name
// already registered (including the built-ins).
func (r *registry[K, E]) add(name K, val E) {
	if v := reflect.ValueOf(val); name == "" || v.Kind() == reflect.Func && v.IsNil() {
		panic("hierdrl: " + r.register + " with empty name or nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("hierdrl: %s %q already registered", r.noun, name))
	}
	r.m[name] = val
}

// lookup resolves name, or fails with the registry's unknown-name error.
func (r *registry[K, E]) lookup(name K) (E, error) {
	r.mu.RLock()
	val, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return val, fmt.Errorf("hierdrl: unknown %s %q", r.kind, name)
	}
	return val, nil
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
)

// RegisterAllocator makes a custom allocation policy resolvable through
// Config.Alloc. It panics on an empty name, a nil factory, or a name already
// registered (including the built-ins).
func RegisterAllocator(name AllocPolicy, build AllocatorFactory) { allocators.add(name, build) }

// RegisterPowerManager makes a custom local-tier policy resolvable through
// Config.DPM. Panics on misuse, like RegisterAllocator.
func RegisterPowerManager(name DPMKind, build PowerManagerFactory) { powerMgrs.add(name, build) }

// Allocators returns every registered allocation-policy name, sorted.
func Allocators() []AllocPolicy { return allocators.names() }

// PowerManagers returns every registered power-manager name, sorted.
func PowerManagers() []DPMKind { return powerMgrs.names() }

// Predictors returns every workload predictor Config.Predictor accepts, sorted.
func Predictors() []PredictorKind {
	return []PredictorKind{PredictorEWMA, PredictorLastValue, PredictorLSTM, PredictorWindowMean}
}

// FaultModels returns every fault model Config.Faults accepts, sorted.
func FaultModels() []FaultKind {
	return []FaultKind{FaultCorrelatedCrash, FaultDegrade, FaultExpCrash, FaultDrain, FaultNone}
}

// RetryPolicies returns every retry policy Config.Retry accepts, sorted.
func RetryPolicies() []RetryKind {
	return []RetryKind{RetryBackoff, RetryDropAfter, RetryImmediate}
}

// EqualDomains splits m servers into n contiguous equal failure domains
// named "dom0".."domN-1" (the first m%n domains absorb the remainder).
// Convenience for driver code building Config.Domains.
func EqualDomains(n, m int) []FailureDomain { return fault.EqualDomains(n, m) }

// faultLayer is a Config's fault family resolved for one session. A nil
// clockFor means fault injection is off (FaultNone).
type faultLayer struct {
	clockFor func(serverID int) fault.Clock
	kind     fault.Kind
	factor   float64        // speed multiplier while degraded (1 unless KindDegrade)
	domains  []fault.Domain // outage-episode partition (correlated-crash only)
	retry    fault.Retry
}

// buildFaultLayer resolves cfg's fault model and retry policy. It is the one
// place their defaults live, and validate calls it too, so a config
// validates exactly when it builds. The retry policy is checked even with
// faults off but attached only to a live model. Errors carry no "hierdrl:"
// prefix; callers add their own context.
func buildFaultLayer(cfg *Config) (faultLayer, error) {
	fl := faultLayer{factor: 1}
	var err error
	switch cfg.Faults {
	case FaultNone:
	case FaultExpCrash:
		fl.clockFor, err = fault.ExpClocks(cfg.Seed, cfg.MTTFSec, cfg.MTTRSec, nil, cfg.M)
	case FaultCorrelatedCrash:
		// An explicit Domains wins, then one domain per heterogeneous server
		// class (classes are contiguous ID ranges, the natural rack
		// analogue), then the whole cluster as a single domain.
		fl.domains = cfg.Domains
		if len(fl.domains) == 0 {
			fl.domains = fault.EqualDomains(1, cfg.M)
			if classes := cfg.Cluster.Classes; len(classes) > 0 {
				fl.domains = make([]fault.Domain, len(classes))
				for i, cl := range classes {
					fl.domains[i] = fault.Domain{Name: cl.Name, Count: cl.Count}
				}
			}
		}
		fl.clockFor, err = fault.ExpClocks(cfg.Seed, cfg.MTTFSec, cfg.MTTRSec, fl.domains, cfg.M)
	case FaultDegrade:
		fl.kind, fl.factor = fault.KindDegrade, cfg.DegradeFactor
		if fl.factor == 0 {
			fl.factor = 0.25
		}
		if !(fl.factor > 0 && fl.factor < 1) {
			return faultLayer{}, fmt.Errorf("fault: degrade factor %v must be in (0, 1)", fl.factor)
		}
		fl.clockFor, err = fault.ExpClocks(cfg.Seed, cfg.MTTFSec, cfg.MTTRSec, nil, cfg.M)
	case FaultDrain:
		every, window := cfg.DrainEverySec, cfg.DrainWindowSec
		if every == 0 {
			every = 14400
		}
		if window == 0 {
			window = 600
		}
		fl.kind = fault.KindDrain
		fl.clockFor, err = fault.DrainClocks(every, window, cfg.M)
	default:
		return faultLayer{}, fmt.Errorf("unknown fault model %q", cfg.Faults)
	}
	if err != nil {
		return faultLayer{}, err
	}

	switch cfg.Retry {
	case RetryImmediate: // the zero fault.Retry
	case RetryBackoff:
		base, capSec := cfg.RetryBackoffSec, cfg.RetryBackoffCapSec
		if base == 0 {
			base = 30
		}
		if capSec == 0 {
			capSec = 600
		}
		if fl.retry, err = fault.NewBackoff(base, capSec, cfg.RetryMax); err != nil {
			return faultLayer{}, err
		}
	case RetryDropAfter:
		if cfg.RetryMax <= 0 {
			return faultLayer{}, fmt.Errorf("retry policy %q needs RetryMax > 0, got %d", RetryDropAfter, cfg.RetryMax)
		}
		fl.retry = fault.Retry{Max: cfg.RetryMax}
	default:
		return faultLayer{}, fmt.Errorf("unknown retry policy %q", cfg.Retry)
	}
	if fl.clockFor == nil {
		return faultLayer{}, nil
	}
	return fl, nil
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

// buildPredictor builds the RL power manager's workload predictor. validate
// has already rejected any name outside Predictors().
func buildPredictor(cfg *Config, rng *RNG) local.ArrivalPredictor {
	switch cfg.Predictor {
	case PredictorEWMA:
		return local.NewEWMA(0.3)
	case PredictorLastValue:
		return local.NewLastValue()
	case PredictorWindowMean:
		return local.NewWindowMean(10)
	default: // PredictorLSTM, the paper's choice
		return lstm.NewPredictor(cfg.LSTMPredictor, rng.Split())
	}
}

// Built-in allocators and power managers register through the same
// machinery external code uses, so AllocPolicy/DPMKind strings all resolve
// one way. The RNG split order inside each factory is part of the
// reproducibility contract: it matches the historical construction order bit
// for bit.
func init() {
	allocators.add(AllocRoundRobin, func(*Config, *RNG) (Allocator, error) {
		return policy.NewRoundRobin(), nil
	})
	allocators.add(AllocRandom, func(_ *Config, rng *RNG) (Allocator, error) {
		return policy.NewRandom(rng.Split()), nil
	})
	allocators.add(AllocLeastLoaded, func(*Config, *RNG) (Allocator, error) {
		return policy.NewLeastLoaded(), nil
	})
	allocators.add(AllocPackFit, func(*Config, *RNG) (Allocator, error) {
		return policy.NewPackFit(0.05)
	})
	allocators.add(AllocDRL, func(*Config, *RNG) (Allocator, error) {
		return nil, fmt.Errorf("hierdrl: the DRL allocator is built by its session (it owns the learning agent)")
	})

	powerMgrs.add(DPMAlwaysOn, func(*Config, int, *RNG) (PowerManager, error) {
		return local.AlwaysOn, nil
	})
	powerMgrs.add(DPMAdHoc, func(*Config, int, *RNG) (PowerManager, error) {
		return local.AdHoc, nil
	})
	powerMgrs.add(DPMFixedTimeout, func(cfg *Config, _ int, _ *RNG) (PowerManager, error) {
		return local.NewFixedTimeout(cfg.FixedTimeoutSec), nil
	})
	powerMgrs.add(DPMRL, func(cfg *Config, _ int, rng *RNG) (PowerManager, error) {
		return local.NewRLTimeout(cfg.LocalRL, buildPredictor(cfg, rng), rng.Split())
	})
}
