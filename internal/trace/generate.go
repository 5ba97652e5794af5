package trace

import (
	"fmt"
	"math"

	"hierdrl/internal/mat"
)

// GeneratorConfig parameterizes the synthetic Google-style workload. The
// defaults are calibrated so that one simulated week produces ~95,000 jobs
// whose offered CPU load suits a 30–40 server cluster — the operating point
// of the paper's evaluation (Sec. VII-A).
type GeneratorConfig struct {
	// NumJobs is the number of jobs to generate.
	NumJobs int
	// BaseRate is the long-run mean arrival rate in jobs/second before
	// diurnal and burst modulation.
	BaseRate float64
	// DiurnalAmplitude in [0,1) scales the sinusoidal day/night swing.
	DiurnalAmplitude float64
	// BurstRateFactor multiplies the arrival rate while a burst is active
	// (a two-state Markov-modulated Poisson process).
	BurstRateFactor float64
	// MeanBurstEvery is the mean time between burst onsets, seconds.
	MeanBurstEvery float64
	// MeanBurstLen is the mean burst duration, seconds.
	MeanBurstLen float64

	// DurationLogMedian is the median job duration in seconds (the
	// log-normal's exp(mu)).
	DurationLogMedian float64
	// DurationLogSigma is the log-normal sigma for durations.
	DurationLogSigma float64
	// MinDuration/MaxDuration clip durations; the paper keeps jobs within
	// [1 minute, 2 hours].
	MinDuration float64
	MaxDuration float64

	// CPULogMedian/CPULogSigma parameterize the log-normal CPU demand.
	CPULogMedian float64
	CPULogSigma  float64
	// MemCorrelation blends memory demand between an independent draw (0)
	// and the job's CPU demand (1); Google jobs show strongly correlated
	// CPU/memory requests.
	MemCorrelation float64
	// DiskLogMedian/DiskLogSigma parameterize the log-normal disk demand.
	DiskLogMedian float64
	DiskLogSigma  float64
	// MinReq/MaxReq clip each per-dimension demand.
	MinReq float64
	MaxReq float64
}

// DefaultGeneratorConfig returns the calibrated defaults described above.
func DefaultGeneratorConfig() GeneratorConfig {
	return GeneratorConfig{
		NumJobs:          95000,
		BaseRate:         95000.0 / (7 * 86400), // ~0.157 jobs/s over a week
		DiurnalAmplitude: 0.35,
		BurstRateFactor:  1.8,
		MeanBurstEvery:   4 * 3600,
		MeanBurstLen:     300,

		DurationLogMedian: 650,
		DurationLogSigma:  0.9,
		MinDuration:       60,
		MaxDuration:       7200,

		CPULogMedian:   0.035,
		CPULogSigma:    0.8,
		MemCorrelation: 0.7,
		DiskLogMedian:  0.010,
		DiskLogSigma:   0.7,
		MinReq:         0.002,
		MaxReq:         0.6,
	}
}

// Validate checks the configuration for consistency.
func (c GeneratorConfig) Validate() error {
	switch {
	case c.NumJobs <= 0:
		return fmt.Errorf("trace: NumJobs must be positive, got %d", c.NumJobs)
	case c.BaseRate <= 0:
		return fmt.Errorf("trace: BaseRate must be positive, got %v", c.BaseRate)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1:
		return fmt.Errorf("trace: DiurnalAmplitude must be in [0,1), got %v", c.DiurnalAmplitude)
	case c.BurstRateFactor < 1:
		return fmt.Errorf("trace: BurstRateFactor must be >= 1, got %v", c.BurstRateFactor)
	case c.MeanBurstEvery <= 0 || c.MeanBurstLen <= 0:
		return fmt.Errorf("trace: burst timing must be positive")
	case c.MinDuration <= 0 || c.MaxDuration < c.MinDuration:
		return fmt.Errorf("trace: invalid duration clip [%v,%v]", c.MinDuration, c.MaxDuration)
	case c.DurationLogMedian <= 0 || c.CPULogMedian <= 0 || c.DiskLogMedian <= 0:
		return fmt.Errorf("trace: log-medians must be positive")
	case c.MemCorrelation < 0 || c.MemCorrelation > 1:
		return fmt.Errorf("trace: MemCorrelation must be in [0,1], got %v", c.MemCorrelation)
	case c.MinReq <= 0 || c.MaxReq > 1 || c.MaxReq < c.MinReq:
		return fmt.Errorf("trace: invalid demand clip [%v,%v]", c.MinReq, c.MaxReq)
	}
	return nil
}

// Source is a pull-based incremental job producer: Next returns the jobs of
// a workload in arrival order until ok is false. *Stream implements it, as do
// the composable generators in internal/workload; the streaming runners
// accept any Source so multi-million-job workloads never materialize. A
// Source is not safe for concurrent use.
type Source interface {
	Next() (Job, bool)
}

// Stream is the incremental form of Generate: it produces the exact job
// sequence Generate would (same RNG draw order, bit for bit) one job at a
// time, so multi-million-job workloads — the scale-10k preset streams >= 2M
// jobs — never materialize in memory. A Stream is not safe for concurrent
// use.
type Stream struct {
	cfg        GeneratorConfig
	rng        *mat.RNG
	now        float64
	burstUntil float64
	nextBurst  float64
	produced   int

	// Logs of the config's log-medians, taken once by NewStream.
	durLogMu, cpuLogMu, diskLogMu float64
}

// NewStream validates cfg and returns a generator positioned before the
// first job. cfg.NumJobs bounds the stream.
func NewStream(cfg GeneratorConfig, seed int64) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := mat.NewRNG(seed)
	return &Stream{
		cfg:        cfg,
		rng:        rng,
		burstUntil: -1.0,
		nextBurst:  rng.Exponential(1 / cfg.MeanBurstEvery),
		durLogMu:   math.Log(cfg.DurationLogMedian),
		cpuLogMu:   math.Log(cfg.CPULogMedian),
		diskLogMu:  math.Log(cfg.DiskLogMedian),
	}, nil
}

// Produced returns the number of jobs generated so far.
func (g *Stream) Produced() int { return g.produced }

var _ Source = (*Stream)(nil)

// Next returns the next job of the workload; ok is false once cfg.NumJobs
// jobs have been produced.
func (g *Stream) Next() (j Job, ok bool) {
	if g.produced >= g.cfg.NumJobs {
		return Job{}, false
	}
	cfg, rng := &g.cfg, g.rng
	// Instantaneous rate = base * diurnal(t) * burst(t). We sample the
	// next gap from the current rate (piecewise-constant approximation,
	// refreshed at every arrival — gaps are seconds, modulation periods
	// are hours, so the approximation error is negligible).
	rate := cfg.BaseRate * (1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*g.now/86400-math.Pi/2))
	if g.now >= g.nextBurst && g.burstUntil < g.now {
		g.burstUntil = g.now + rng.Exponential(1/cfg.MeanBurstLen)
		g.nextBurst = g.now + rng.Exponential(1/cfg.MeanBurstEvery)
	}
	if g.now < g.burstUntil {
		rate *= cfg.BurstRateFactor
	}
	g.now += rng.Exponential(rate)

	dur := clamp(rng.LogNormal(g.durLogMu, cfg.DurationLogSigma),
		cfg.MinDuration, cfg.MaxDuration)
	cpu := clamp(rng.LogNormal(g.cpuLogMu, cfg.CPULogSigma),
		cfg.MinReq, cfg.MaxReq)
	memIndep := rng.LogNormal(g.cpuLogMu, cfg.CPULogSigma)
	mem := clamp(cfg.MemCorrelation*cpu+(1-cfg.MemCorrelation)*memIndep,
		cfg.MinReq, cfg.MaxReq)
	disk := clamp(rng.LogNormal(g.diskLogMu, cfg.DiskLogSigma),
		cfg.MinReq, cfg.MaxReq)

	j = Job{
		ID:       g.produced,
		Arrival:  g.now,
		Duration: dur,
		Req:      [NumResources]float64{cpu, mem, disk},
	}
	g.produced++
	return j, true
}

// Generate produces a synthetic trace. The same seed always yields the same
// trace (and the same sequence a Stream with that seed yields).
func Generate(cfg GeneratorConfig, seed int64) (*Trace, error) {
	g, err := NewStream(cfg, seed)
	if err != nil {
		return nil, err
	}
	t := &Trace{Jobs: make([]Job, 0, cfg.NumJobs)}
	for {
		j, ok := g.Next()
		if !ok {
			break
		}
		t.Jobs = append(t.Jobs, j)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: generated trace invalid: %w", err)
	}
	return t, nil
}

// MustGenerate is Generate for tests and examples with known-good configs.
func MustGenerate(cfg GeneratorConfig, seed int64) *Trace {
	t, err := Generate(cfg, seed)
	if err != nil {
		panic(err)
	}
	return t
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
