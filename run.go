package hierdrl

import (
	"fmt"
	"io"
	"slices"

	"hierdrl/internal/cluster"
	"hierdrl/internal/global"
	"hierdrl/internal/lstm"
	"hierdrl/internal/mat"
	"hierdrl/internal/policy"
	"hierdrl/internal/trace"
)

// Run executes one experiment end to end: it builds a Session (which runs
// the Algorithm 1 offline phase for DRL configurations with a WarmupTrace),
// replays the trace through it, and returns the measurements. It is a thin
// wrapper over the streaming Session API — NewSession, SubmitTrace, Drain,
// Result, Close — and a Session driven the same way produces
// bitwise-identical results. opts are NewSession's: most usefully
// WithObserver to watch a batch run live.
//
// Run submits the whole trace at once rather than chunking it through
// RunSource: SubmitTrace sorts the entire batch, so an unsorted trace keeps
// its declared arrival instants, whereas chasing 32,768-job chunks would
// re-time every job that arrives before the previous chunk's horizon.
func Run(cfg Config, tr *Trace, opts ...SessionOption) (*Result, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("hierdrl: empty trace")
	}
	return runSession(cfg, opts, func(s *Session) error { return s.SubmitTrace(tr) })
}

// runSession is the lifecycle Run and RunSource share: NewSession, feed the
// jobs in, Drain, Result, Close. A failing Close (the WithEpochTraceFile
// dump) is the run's error when everything before it succeeded.
func runSession(cfg Config, opts []SessionOption, feed func(*Session) error) (res *Result, err error) {
	s, err := NewSession(cfg, opts...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.Close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()
	if err := feed(s); err != nil {
		return nil, err
	}
	if err := s.Drain(); err != nil {
		return nil, err
	}
	return s.Result()
}

// validate normalizes cfg in place (defaults) and rejects inconsistent
// configurations. Allocator and power-manager names resolve through the
// registry, so externally registered policies validate exactly like the
// built-ins; the fault layer is built and discarded, so a config validates
// exactly when it builds.
func validate(cfg *Config) error {
	if cfg.M <= 0 {
		return fmt.Errorf("hierdrl: M must be positive, got %d", cfg.M)
	}
	if _, err := allocators.lookup(cfg.Alloc); err != nil {
		return err
	}
	if cfg.Alloc == AllocDRL {
		if err := cfg.Global.Validate(cfg.M); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
	}
	if _, err := powerMgrs.lookup(cfg.DPM); err != nil {
		return err
	}
	switch cfg.DPM {
	case DPMFixedTimeout:
		if cfg.FixedTimeoutSec < 0 {
			return fmt.Errorf("hierdrl: negative fixed timeout %v", cfg.FixedTimeoutSec)
		}
	case DPMRL:
		if err := cfg.LocalRL.Validate(); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
		if cfg.Predictor == "" {
			cfg.Predictor = PredictorLSTM
		}
		if !slices.Contains(Predictors(), cfg.Predictor) {
			return fmt.Errorf("hierdrl: unknown predictor %q", cfg.Predictor)
		}
		// A zero Lookback means "take the defaults", filled in below.
		if cfg.Predictor == PredictorLSTM && cfg.LSTMPredictor.Lookback != 0 {
			if err := cfg.LSTMPredictor.Validate(); err != nil {
				return fmt.Errorf("hierdrl: %w", err)
			}
		}
	}
	if cfg.Faults == "" {
		cfg.Faults = FaultNone
	}
	if cfg.Retry == "" {
		cfg.Retry = RetryImmediate
	}
	// An explicit Cluster override must be complete and consistent with M;
	// historically a partial override (M left zero) was silently replaced by
	// the derived default, so a typoed override lost without a trace.
	switch {
	case isZeroClusterConfig(cfg.Cluster):
		cfg.Cluster = cluster.DefaultConfig(cfg.M)
	case cfg.Cluster.M == 0:
		return fmt.Errorf("hierdrl: partial Cluster override (M is zero but other fields are set); set Cluster.M = M or leave Cluster entirely zero")
	case cfg.Cluster.M != cfg.M:
		return fmt.Errorf("hierdrl: cluster M=%d but config M=%d", cfg.Cluster.M, cfg.M)
	default:
		if err := cfg.Cluster.Validate(); err != nil {
			return fmt.Errorf("hierdrl: %w", err)
		}
	}
	// After the Cluster check: class-derived failure domains read it.
	if _, err := buildFaultLayer(cfg); err != nil {
		return fmt.Errorf("hierdrl: %w", err)
	}
	if cfg.WarmupEpsilon == 0 {
		cfg.WarmupEpsilon = 1.0
	}
	if cfg.AEPretrainEpochs == 0 {
		cfg.AEPretrainEpochs = 200
	}
	if cfg.OfflineSweeps == 0 {
		cfg.OfflineSweeps = 200
	}
	if cfg.LSTMPredictor.Lookback == 0 {
		cfg.LSTMPredictor = lstm.DefaultPredictorConfig()
	}
	return nil
}

// DefaultClusterConfig returns the paper-calibrated homogeneous cluster
// configuration for m servers — the one Run derives when Config.Cluster is
// left zero. Use it as the base for heterogeneous overrides: set .Classes to
// a []ServerClass whose counts sum to m and assign it to Config.Cluster.
func DefaultClusterConfig(m int) cluster.Config { return cluster.DefaultConfig(m) }

// isZeroClusterConfig reports whether c is entirely unset (the "derive the
// default cluster" sentinel). Config carries a Classes slice, so the struct
// is no longer comparable and the zero check is spelled out field by field.
func isZeroClusterConfig(c cluster.Config) bool {
	return c.M == 0 && c.Server == (cluster.ServerConfig{}) &&
		c.HotSpotThreshold == 0 && len(c.Classes) == 0
}

// warmup runs the Algorithm 1 offline construction phase: a high-epsilon
// rollout over the warmup trace (a throwaway Session pass sharing the agent)
// fills the experience memory and the autoencoder sample buffer; then the
// autoencoder pretrains on reconstruction and fitted-Q sweeps refine the
// DNN.
func warmup(cfg Config, agent *global.Agent, rng *mat.RNG) error {
	prevEps := agent.Epsilon()
	agent.SetEpsilon(cfg.WarmupEpsilon)
	// Algorithm 1 permits an "arbitrary policy and gradually refined
	// policy" for filling the experience memory; a consolidating heuristic
	// (pack-fit, with a 20% uniform mix applied inside the agent) exposes
	// the region of state space the learned policy will actually live in.
	pf, err := policy.NewPackFit(0.05)
	if err != nil {
		return err
	}
	agent.SetBehavior(pf.Allocate)
	defer agent.SetBehavior(nil)
	p, err := newPass(cfg, agent, rng, 0, sessionOptions{})
	if err != nil {
		return fmt.Errorf("hierdrl: warmup rollout: %w", err)
	}
	defer p.Close() // no training round of the throwaway pass outlives it
	if err := p.SubmitTrace(cfg.WarmupTrace); err != nil {
		return fmt.Errorf("hierdrl: warmup rollout: %w", err)
	}
	if err := p.Drain(); err != nil {
		return fmt.Errorf("hierdrl: warmup rollout: %w", err)
	}
	if _, err := p.Result(); err != nil {
		return fmt.Errorf("hierdrl: warmup rollout: %w", err)
	}
	agent.PretrainAutoencoder(cfg.AEPretrainEpochs)
	agent.TrainOffline(cfg.OfflineSweeps)
	eps := cfg.PostWarmupEpsilon
	if eps <= 0 {
		eps = prevEps
	}
	agent.SetEpsilon(eps)
	return nil
}

// TraceStatsOf summarizes a workload (exposed for examples and tools).
func TraceStatsOf(tr *Trace) TraceStats { return tr.ComputeStats() }

// ReadTraceCSV parses a trace in the canonical CSV format
// ("arrival,duration,cpu,mem,disk" rows); real extracted Google traces can
// be loaded through it unchanged.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// WriteTraceCSV writes a trace in the canonical CSV format.
func WriteTraceCSV(w io.Writer, tr *Trace) error { return tr.WriteCSV(w) }

// WriteTraceCSVStream writes jobs pulled from next (until it reports false)
// in the canonical CSV format, so multi-million-job workloads can be written
// without materializing (pair with ScaleStream / GenerateTrace's streaming
// form).
func WriteTraceCSVStream(w io.Writer, next func() (Job, bool)) error {
	return trace.WriteCSVStream(w, next)
}

// ParseTraceCSVRow parses one "arrival,duration,cpu,mem,disk" row into a
// Job, for streaming frontends that feed Session.Submit line by line (the
// same row syntax ReadTraceCSV consumes; semantic validation happens at
// Submit).
func ParseTraceCSVRow(row string) (Job, error) { return trace.ParseCSVRow(row) }
