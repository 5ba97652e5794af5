package workload

import (
	"math"
	"runtime"

	"hierdrl/internal/mat"
	"hierdrl/internal/trace"
)

// chainSeed is output idx+1 of a splitmix64 generator started at seed, the
// finalizer internal/fault also chains per-server fault seeds through. Each
// stochastic component of a Source gets its own well-separated RNG stream, so
// the workload is a pure function of (seed, Config) and editing one component
// never perturbs another's draws.
func chainSeed(seed int64, idx int) int64 {
	return int64(mat.SplitMix(uint64(seed) + mat.Golden*uint64(idx+1)))
}

// mmppState is one MMPP modulator's live burst process. Burst boundaries are
// refreshed at arrival instants (gaps are seconds, burst scales are
// minutes-to-hours, so the piecewise-constant approximation error is
// negligible).
type mmppState struct {
	mod        Modulator
	rng        *mat.RNG
	burstUntil float64
	nextBurst  float64
}

// classState is one class of the mix, normalized, with its cumulative mix
// weight and its live sampler: its own RNG stream and the logs of its
// distributions' log-normal medians, taken once by NewSource.
type classState struct {
	Class
	cum                  float64
	rng                  *mat.RNG
	durMu, cpuMu, diskMu float64
}

// generator is the configured workload's sampler: its RNG streams and its
// position in the job sequence. A Source's producer goroutine owns it from
// the first Next on.
type generator struct {
	cfg      Config // as given; classes holds its classes, normalized
	arr      *mat.RNG
	pick     *mat.RNG // nil for a one-class mix, which draws no pick
	classes  []classState
	mmpp     []mmppState
	now      float64
	produced int
}

// Read-ahead sizing: the producer fills batches of batchJobs jobs from a pool
// of poolJobs. The pool must cover a consumer's burst between two stretches
// of simulation, or the consumer waits on the producer every burst
// (DESIGN.md §15 "Read-ahead").
const (
	batchJobs = 1024
	poolJobs  = 16 * batchJobs
)

// Source generates the configured workload one job at a time. It implements
// trace.Source; it is not safe for concurrent use.
//
// The jobs are generated ahead on a producer goroutine, started by the first
// Next, into a fixed pool of batches: full batches come to Next through one
// channel and spent ones go back through another. The producer owns the
// generator, so the jobs are the ones the generator yields inline, bit for
// bit. It ends with the last job, or once a Source dropped part-way is
// collected. A first Next that finds GOMAXPROCS at 1 starts no producer: with
// no core to run ahead on, the Source runs the generator on the caller.
type Source struct {
	gen        *generator // until a producer starts, which takes it
	inline     bool       // the caller runs gen (GOMAXPROCS was 1)
	numJobs    int
	batch      []trace.Job // the batch Next hands out, from pos on
	pos        int
	produced   int
	full, free chan []trace.Job
	stop       *producerStop
}

// producerStop is referred to by one Source alone, so it becomes unreachable
// with the Source, and its finalizer then stops the producer. On the Source
// itself a finalizer would keep the pool alive for one more GC cycle.
type producerStop struct{ quit chan struct{} }

// NewSource validates cfg and returns a Source positioned before the
// first job. Component RNG streams are seeded by two-level chaining —
// chainSeed(seed, group) selects the component group (arrival process, class
// picker, modulators, classes), then chainSeed(groupSeed, i) the member — so
// the groups are structurally independent: adding a modulator never reseeds
// a class stream, and adding a class never reseeds a modulator.
func NewSource(cfg Config, seed int64) (*Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &generator{cfg: cfg, arr: mat.NewRNG(chainSeed(seed, 0))}
	if len(cfg.Classes) > 1 {
		s.pick = mat.NewRNG(chainSeed(seed, 1))
	}
	modSeed, classSeed := chainSeed(seed, 2), chainSeed(seed, 3)
	for i, m := range cfg.Mods {
		if m.Kind != ModMMPP {
			continue
		}
		// Seeded by position in the full Mods list, so a flash layer's slot
		// stays reserved and inserting one never reseeds a neighboring MMPP.
		rng := mat.NewRNG(chainSeed(modSeed, i))
		s.mmpp = append(s.mmpp, mmppState{
			mod:        m,
			rng:        rng,
			burstUntil: -1,
			nextBurst:  rng.Exponential(1 / m.MeanEverySec),
		})
	}
	var wsum float64
	s.classes = make([]classState, len(cfg.Classes))
	for i, cl := range cfg.Classes {
		wsum += cl.Weight
		s.classes[i] = classState{
			Class:  cl.normalized(),
			cum:    wsum,
			rng:    mat.NewRNG(chainSeed(classSeed, i)),
			durMu:  cl.Duration.logMedian(),
			cpuMu:  cl.CPU.logMedian(),
			diskMu: cl.Disk.logMedian(),
		}
	}
	return &Source{gen: s, numJobs: cfg.NumJobs}, nil
}

var _ trace.Source = (*Source)(nil)

// Produced returns the number of jobs Next has handed out.
func (s *Source) Produced() int { return s.produced }

// Next returns the next job; ok is false once NumJobs jobs were handed out.
// The jobs are the generator's (generator.next), in its order.
func (s *Source) Next() (j trace.Job, ok bool) {
	if s.pos == len(s.batch) {
		if s.produced >= s.numJobs {
			return trace.Job{}, false
		}
		switch {
		case s.full != nil:
			// Every batch is in one of the two channels or in hand, and each
			// channel holds the whole pool, so this send never blocks.
			s.free <- s.batch[:cap(s.batch)]
		case s.inline || runtime.GOMAXPROCS(0) == 1:
			// With one P there is no core to run ahead on: a producer would
			// fill the whole pool before the caller ran again, and every job
			// would pass through the slab. Run the generator here instead.
			s.inline = true
			s.produced++
			return s.gen.next()
		default:
			s.start()
		}
		s.batch, s.pos = <-s.full, 0
	}
	j = s.batch[s.pos]
	s.pos++
	s.produced++
	return j, true
}

// start allocates the pool (no more jobs than the workload has), hands the
// generator to a producer goroutine and arranges for a Source dropped before
// its last job to stop that producer.
func (s *Source) start() {
	slab := make([]trace.Job, min(s.numJobs, poolJobs))
	n := (len(slab) + batchJobs - 1) / batchJobs
	s.full, s.free = make(chan []trace.Job, n), make(chan []trace.Job, n)
	for lo := 0; lo < len(slab); lo += batchJobs {
		hi := min(lo+batchJobs, len(slab))
		s.free <- slab[lo:hi:hi]
	}
	s.stop = &producerStop{make(chan struct{})}
	runtime.SetFinalizer(s.stop, func(p *producerStop) { close(p.quit) })
	go s.gen.produce(s.full, s.free, s.stop.quit)
	s.gen = nil
}

// produce fills free batches with the generator's next jobs and passes them
// on full, until the workload's last job or quit.
func (g *generator) produce(full chan<- []trace.Job, free <-chan []trace.Job, quit <-chan struct{}) {
	for g.produced < g.cfg.NumJobs {
		var b []trace.Job
		select {
		case b = <-free:
		case <-quit:
			return
		}
		b = b[:min(len(b), g.cfg.NumJobs-g.produced)]
		for i := range b {
			b[i], _ = g.next()
		}
		full <- b
	}
}

// baseRate evaluates the base layer's deterministic rate profile at t.
func (b *Base) baseRate(t float64) float64 {
	switch b.Kind {
	case BaseConstant:
		return b.Rate
	case BaseDiurnal:
		period := b.PeriodSec
		if period == 0 {
			period = 86400
		}
		return b.Rate * (1 + b.Amplitude*math.Sin(2*math.Pi*(t+b.PhaseSec)/period-math.Pi/2))
	case BaseRamp:
		if t >= b.RampSec {
			return b.EndRate
		}
		return b.Rate + (b.EndRate-b.Rate)*(t/b.RampSec)
	default:
		panic("workload: unvalidated base kind " + string(b.Kind))
	}
}

// flashMultiplier evaluates a flash-crowd spike's deterministic multiplier
// at t: 1 outside the spike, a linear ramp to Peak, a hold, a linear decay.
func flashMultiplier(m *Modulator, t float64) float64 {
	tt := t - m.AtSec
	if tt < 0 {
		return 1
	}
	if m.RepeatEverySec > 0 {
		tt = math.Mod(tt, m.RepeatEverySec)
	}
	switch {
	case tt < m.RampUpSec:
		return 1 + (m.Peak-1)*(tt/m.RampUpSec)
	case tt < m.RampUpSec+m.HoldSec:
		return m.Peak
	case tt < m.RampUpSec+m.HoldSec+m.DecaySec:
		return m.Peak - (m.Peak-1)*((tt-m.RampUpSec-m.HoldSec)/m.DecaySec)
	default:
		return 1
	}
}

// rateAt composes the instantaneous rate at t: base profile times every
// modulator's multiplier. MMPP burst state is advanced here, at arrival
// instants, from each layer's own RNG.
func (s *generator) rateAt(t float64) float64 {
	rate := s.cfg.Base.baseRate(t)
	for i := range s.mmpp {
		st := &s.mmpp[i]
		if t >= st.nextBurst && st.burstUntil < t {
			st.burstUntil = t + st.rng.Exponential(1/st.mod.MeanLenSec)
			st.nextBurst = t + st.rng.Exponential(1/st.mod.MeanEverySec)
		}
		if t < st.burstUntil {
			rate *= st.mod.Factor
		}
	}
	for i := range s.cfg.Mods {
		if m := &s.cfg.Mods[i]; m.Kind == ModFlash {
			rate *= flashMultiplier(m, t)
		}
	}
	return rate
}

// logMedian is a log-normal's mu, log(Median), and 0 for the other kinds,
// whose samples do not read it.
func (d Dist) logMedian() float64 {
	if d.Kind == DistLogNormal {
		return math.Log(d.Median)
	}
	return 0
}

// sample draws one value from the distribution using rng; mu is
// d.logMedian(), taken once per class rather than once per draw.
func (d *Dist) sample(rng *mat.RNG, mu float64) float64 {
	switch d.Kind {
	case DistFixed:
		return d.Mean
	case DistExponential:
		return rng.Exponential(1 / d.Mean)
	case DistPareto:
		// Inverse-CDF: Xm / (1-U)^(1/Alpha), U uniform in [0,1).
		return d.Xm / math.Pow(1-rng.Float64(), 1/d.Alpha)
	case DistLogNormal:
		return rng.LogNormal(mu, d.Sigma)
	default:
		panic("workload: unvalidated distribution kind " + string(d.Kind))
	}
}

// next returns the next job; ok is false once NumJobs jobs were produced.
// Draw order per job is fixed — arrival gap, class pick (skipped when the mix
// has one class; the pick stream is its own, so no other draw moves), then
// the class's duration, CPU, independent-memory, and disk draws from the
// class's own stream — so every job is reproducible by construction.
func (s *generator) next() (j trace.Job, ok bool) {
	if s.produced >= s.cfg.NumJobs {
		return trace.Job{}, false
	}
	// Sample the next gap from the rate at the current instant
	// (piecewise-constant approximation, refreshed at every arrival).
	s.now += s.arr.Exponential(s.rateAt(s.now))

	ci := len(s.classes) - 1
	if s.pick != nil {
		u := s.pick.Float64()
		for i := range s.classes {
			if u < s.classes[i].cum {
				ci = i
				break
			}
		}
	}
	cl := &s.classes[ci]

	dur := clampf(cl.Duration.sample(cl.rng, cl.durMu), cl.MinDuration, cl.MaxDuration)
	cpu := clampf(cl.CPU.sample(cl.rng, cl.cpuMu), cl.MinReq, cl.MaxReq)
	memIndep := cl.CPU.sample(cl.rng, cl.cpuMu)
	// At MemCorrelation 1 memory is the CPU demand: the blend's 0*memIndep
	// would be NaN for an independent draw that overflowed to +Inf.
	mem := cpu
	if cl.MemCorrelation < 1 {
		mem = clampf(cl.MemCorrelation*cpu+(1-cl.MemCorrelation)*memIndep, cl.MinReq, cl.MaxReq)
	}
	disk := clampf(cl.Disk.sample(cl.rng, cl.diskMu), cl.MinReq, cl.MaxReq)

	j = trace.Job{
		ID:       s.produced,
		Arrival:  s.now,
		Duration: dur,
		Req:      [trace.NumResources]float64{cpu, mem, disk},
	}
	s.produced++
	return j, true
}

func clampf(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
