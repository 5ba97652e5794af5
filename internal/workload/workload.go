// Package workload provides composable, deterministic workload generators:
// declarative scenario configurations — a base arrival-rate layer,
// multiplicative rate modulators, and a job-class mix with per-class demand
// and duration distributions — compiled into a trace.Source that produces the
// workload one job at a time.
//
// Determinism contract: a Source's job sequence is a pure function of
// (seed, Config). Every stochastic component (the arrival process, each MMPP
// modulator, the class picker, each class's attribute sampler) draws from its
// own RNG, seeded by splitmix64-mixing the scenario seed with the component's
// structural index. Components therefore never perturb each other's streams:
// adding a modulator or a class changes only the jobs that component touches,
// and the sequence is bitwise reproducible run to run (generation happens
// before dispatch).
package workload

import (
	"fmt"
	"math"
)

// Default clip bounds, the paper workload's calibration: jobs stay within
// [1 minute, 2 hours] and per-dimension demands within [0.002, 0.6] of a
// unit server.
const (
	DefaultMinDuration = 60
	DefaultMaxDuration = 7200
	DefaultMinReq      = 0.002
	DefaultMaxReq      = 0.6
)

// MinRate is the smallest base or ramp rate Validate accepts, in jobs/second
// (one job in ~32 years). Far below it an arrival gap, drawn at 1/rate,
// overflows to +Inf and every later job arrives at +Inf.
const MinRate = 1e-9

// BaseKind selects the base arrival-rate layer's shape.
type BaseKind string

// Base layer kinds.
const (
	// BaseConstant is a homogeneous Poisson process at Rate.
	BaseConstant BaseKind = "constant"
	// BaseDiurnal modulates Rate with a sinusoidal day/night swing:
	// rate(t) = Rate * (1 + Amplitude*sin(2π(t+Phase)/Period - π/2)),
	// troughing at t=-Phase (midnight) and peaking half a period later.
	BaseDiurnal BaseKind = "diurnal"
	// BaseRamp interpolates linearly from Rate at t=0 to EndRate at
	// t=RampSec, holding EndRate afterwards (load-growth scenarios).
	BaseRamp BaseKind = "ramp"
)

// Base is the base arrival-rate layer: the deterministic rate profile the
// modulators multiply.
type Base struct {
	// Kind selects the shape.
	Kind BaseKind
	// Rate is the layer's reference rate in jobs/second: the constant rate,
	// the diurnal mean, or the ramp's starting rate.
	Rate float64
	// Amplitude in [0,1) scales the diurnal swing (diurnal only).
	Amplitude float64
	// PeriodSec is the diurnal period (0 = 86400, one day), from 1 s to
	// 1e9 s (~32 years).
	PeriodSec float64
	// PhaseSec shifts the diurnal phase (0 = trough at t=0), by less than
	// one period either way.
	PhaseSec float64
	// EndRate is the ramp's final rate (ramp only).
	EndRate float64
	// RampSec is the ramp duration (ramp only).
	RampSec float64
}

// ModKind selects a rate modulator's mechanism.
type ModKind string

// Modulator kinds.
const (
	// ModMMPP is a two-state Markov-modulated Poisson overlay: bursts begin
	// after Exponential(MeanEverySec) quiet periods, last
	// Exponential(MeanLenSec), and multiply the rate by Factor while active.
	ModMMPP ModKind = "mmpp"
	// ModFlash is a deterministic flash-crowd spike: the multiplier ramps
	// linearly 1→Peak over RampUpSec starting at AtSec, holds Peak for
	// HoldSec, decays linearly back to 1 over DecaySec, and optionally
	// repeats every RepeatEverySec.
	ModFlash ModKind = "flash"
)

// Modulator is one multiplicative rate layer. Modulators compose: the
// instantaneous rate is the base profile times every modulator's multiplier.
type Modulator struct {
	// Kind selects the mechanism.
	Kind ModKind

	// MMPP parameters.
	Factor       float64 // rate multiplier while a burst is active (>= 1)
	MeanEverySec float64 // mean quiet time between burst onsets
	MeanLenSec   float64 // mean burst duration

	// Flash-crowd parameters.
	AtSec          float64 // spike onset time
	Peak           float64 // peak multiplier (>= 1)
	RampUpSec      float64 // linear ramp-up duration
	HoldSec        float64 // hold-at-peak duration
	DecaySec       float64 // linear decay duration
	RepeatEverySec float64 // repeat period (0 = one-shot)
}

// DistKind selects a scalar distribution family.
type DistKind string

// Distribution kinds.
const (
	// DistFixed is the degenerate distribution at Mean.
	DistFixed DistKind = "fixed"
	// DistExponential has the given Mean (rate 1/Mean).
	DistExponential DistKind = "exponential"
	// DistPareto is the heavy-tailed Pareto(Alpha, Xm): scale Xm, shape
	// Alpha (smaller Alpha = heavier tail; Alpha <= 1 has infinite mean).
	DistPareto DistKind = "pareto"
	// DistLogNormal has median Median and log-space sigma Sigma.
	DistLogNormal DistKind = "lognormal"
)

// Dist is a scalar distribution: one of the families above with its
// parameters. Unused parameters are ignored.
type Dist struct {
	Kind   DistKind
	Mean   float64 // fixed value, or exponential mean
	Alpha  float64 // Pareto shape
	Xm     float64 // Pareto scale (minimum value)
	Median float64 // log-normal median, exp(mu)
	Sigma  float64 // log-normal sigma
}

// Class is one job class of the mix: a selection weight plus the class's
// duration and demand distributions.
type Class struct {
	// Name labels the class (optional, for docs and tooling).
	Name string
	// Weight is the class's selection probability; weights across the mix
	// must sum to ~1.
	Weight float64
	// Duration is the nominal service-time distribution, clipped to
	// [MinDuration, MaxDuration].
	Duration    Dist
	MinDuration float64 // 0 = DefaultMinDuration
	MaxDuration float64 // 0 = DefaultMaxDuration
	// CPU is the CPU-demand distribution, clipped to [MinReq, MaxReq].
	CPU Dist
	// MemCorrelation blends memory demand between an independent CPU-dist
	// draw (0) and the job's CPU demand (1): Google jobs show strongly
	// correlated CPU/memory requests.
	MemCorrelation float64
	// Disk is the disk-demand distribution, clipped to [MinReq, MaxReq].
	Disk   Dist
	MinReq float64 // 0 = DefaultMinReq
	MaxReq float64 // 0 = DefaultMaxReq
}

// Config is a declarative workload: how many jobs, the base rate profile,
// the modulator stack, and the job-class mix.
type Config struct {
	// NumJobs bounds the generated sequence.
	NumJobs int
	// Base is the base arrival-rate layer.
	Base Base
	// Mods is the multiplicative modulator stack (may be empty).
	Mods []Modulator
	// Classes is the job-class mix (must be non-empty, weights summing ~1).
	Classes []Class
}

// weightTol is the tolerance on the class-mix weight sum.
const weightTol = 1e-6

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func positive(x float64) bool { return x > 0 && !math.IsInf(x, 1) } // NaN fails x > 0

func rateOK(x float64) bool { return x >= MinRate && !math.IsInf(x, 1) } // NaN fails x >= MinRate

// Validate rejects inconsistent configurations: rates below MinRate or
// non-finite, non-positive or non-finite parameters, empty class mixes,
// weights that don't sum to ~1, and inverted clip ranges. It validates the
// normalized form, so zero clip fields (meaning "use the defaults") pass.
func (c Config) Validate() error {
	if c.NumJobs <= 0 {
		return fmt.Errorf("workload: NumJobs must be positive, got %d", c.NumJobs)
	}
	if err := c.Base.validate(); err != nil {
		return err
	}
	for i, m := range c.Mods {
		if err := m.validate(); err != nil {
			return fmt.Errorf("workload: modulator %d: %w", i, err)
		}
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("workload: empty class mix (at least one Class required)")
	}
	var wsum float64
	for i, cl := range c.Classes {
		if err := cl.normalized().validate(); err != nil {
			return fmt.Errorf("workload: class %d (%q): %w", i, cl.Name, err)
		}
		wsum += cl.Weight
	}
	if math.Abs(wsum-1) > weightTol {
		return fmt.Errorf("workload: class weights sum to %v, want 1 (±%v)", wsum, weightTol)
	}
	return nil
}

func (b Base) validate() error {
	switch b.Kind {
	case BaseConstant:
		if !rateOK(b.Rate) {
			return fmt.Errorf("workload: constant base Rate must be finite and at least MinRate (%v), got %v", MinRate, b.Rate)
		}
	case BaseDiurnal:
		if !rateOK(b.Rate) {
			return fmt.Errorf("workload: diurnal base Rate must be finite and at least MinRate (%v), got %v", MinRate, b.Rate)
		}
		if !(b.Amplitude >= 0 && b.Amplitude < 1) { // NaN fails
			return fmt.Errorf("workload: diurnal Amplitude must be in [0,1), got %v", b.Amplitude)
		}
		// Outside these bounds the phase angle 2π(t+PhaseSec)/PeriodSec
		// overflows and the rate is NaN.
		period := b.PeriodSec
		if period == 0 {
			period = 86400
		}
		if !(period >= 1 && period <= 1e9) { // NaN fails
			return fmt.Errorf("workload: diurnal PeriodSec must be 0 or in [1, 1e9] s, got %v", b.PeriodSec)
		}
		if !(math.Abs(b.PhaseSec) < period) {
			return fmt.Errorf("workload: diurnal PhaseSec must be less than one period either way, got %v", b.PhaseSec)
		}
	case BaseRamp:
		if !rateOK(b.Rate) || !rateOK(b.EndRate) {
			return fmt.Errorf("workload: ramp rates must be finite and at least MinRate (%v), got %v -> %v", MinRate, b.Rate, b.EndRate)
		}
		if !positive(b.RampSec) {
			return fmt.Errorf("workload: RampSec must be positive and finite, got %v", b.RampSec)
		}
	default:
		return fmt.Errorf("workload: unknown base kind %q", b.Kind)
	}
	return nil
}

func (m Modulator) validate() error {
	switch m.Kind {
	case ModMMPP:
		if !(m.Factor >= 1) || !finite(m.Factor) {
			return fmt.Errorf("mmpp Factor must be >= 1 and finite, got %v", m.Factor)
		}
		if !positive(m.MeanEverySec) || !positive(m.MeanLenSec) {
			return fmt.Errorf("mmpp burst timing must be positive and finite, got every=%v len=%v",
				m.MeanEverySec, m.MeanLenSec)
		}
	case ModFlash:
		if !(m.Peak >= 1) || !finite(m.Peak) {
			return fmt.Errorf("flash Peak must be >= 1 and finite, got %v", m.Peak)
		}
		if !(m.AtSec >= 0) || !finite(m.AtSec) {
			return fmt.Errorf("flash AtSec must be non-negative and finite, got %v", m.AtSec)
		}
		for _, d := range [...]float64{m.RampUpSec, m.HoldSec, m.DecaySec} {
			if !(d >= 0) || !finite(d) {
				return fmt.Errorf("flash phase durations must be non-negative and finite, got ramp=%v hold=%v decay=%v",
					m.RampUpSec, m.HoldSec, m.DecaySec)
			}
		}
		if span := m.RampUpSec + m.HoldSec + m.DecaySec; m.RepeatEverySec != 0 && m.RepeatEverySec < span {
			return fmt.Errorf("flash RepeatEverySec %v shorter than spike span %v", m.RepeatEverySec, span)
		}
		if !(m.RepeatEverySec >= 0) || math.IsInf(m.RepeatEverySec, 1) {
			return fmt.Errorf("flash RepeatEverySec must be non-negative and finite, got %v", m.RepeatEverySec)
		}
	default:
		return fmt.Errorf("unknown modulator kind %q", m.Kind)
	}
	return nil
}

func (d Dist) validate(what string) error {
	switch d.Kind {
	case DistFixed:
		if !positive(d.Mean) {
			return fmt.Errorf("%s: fixed value must be positive and finite, got %v", what, d.Mean)
		}
	case DistExponential:
		if !positive(d.Mean) {
			return fmt.Errorf("%s: exponential Mean must be positive and finite, got %v", what, d.Mean)
		}
	case DistPareto:
		if !positive(d.Alpha) || !positive(d.Xm) {
			return fmt.Errorf("%s: Pareto needs positive finite Alpha and Xm, got alpha=%v xm=%v",
				what, d.Alpha, d.Xm)
		}
	case DistLogNormal:
		if !positive(d.Median) {
			return fmt.Errorf("%s: lognormal Median must be positive and finite, got %v", what, d.Median)
		}
		if !(d.Sigma >= 0) || !finite(d.Sigma) {
			return fmt.Errorf("%s: lognormal Sigma must be non-negative and finite, got %v", what, d.Sigma)
		}
	default:
		return fmt.Errorf("%s: unknown distribution kind %q", what, d.Kind)
	}
	return nil
}

// normalized returns the class with zero clip fields replaced by the shared
// defaults.
func (cl Class) normalized() Class {
	if cl.MinDuration == 0 {
		cl.MinDuration = DefaultMinDuration
	}
	if cl.MaxDuration == 0 {
		cl.MaxDuration = DefaultMaxDuration
	}
	if cl.MinReq == 0 {
		cl.MinReq = DefaultMinReq
	}
	if cl.MaxReq == 0 {
		cl.MaxReq = DefaultMaxReq
	}
	return cl
}

// validate checks a normalized class.
func (cl Class) validate() error {
	if !positive(cl.Weight) {
		return fmt.Errorf("Weight must be positive and finite, got %v", cl.Weight)
	}
	if err := cl.Duration.validate("Duration"); err != nil {
		return err
	}
	if err := cl.CPU.validate("CPU"); err != nil {
		return err
	}
	if err := cl.Disk.validate("Disk"); err != nil {
		return err
	}
	if !(cl.MemCorrelation >= 0 && cl.MemCorrelation <= 1) {
		return fmt.Errorf("MemCorrelation must be in [0,1], got %v", cl.MemCorrelation)
	}
	if !positive(cl.MinDuration) || !finite(cl.MaxDuration) || cl.MaxDuration < cl.MinDuration {
		return fmt.Errorf("invalid duration clip [%v,%v]", cl.MinDuration, cl.MaxDuration)
	}
	if !positive(cl.MinReq) || cl.MaxReq > 1 || cl.MaxReq < cl.MinReq {
		return fmt.Errorf("invalid demand clip [%v,%v]", cl.MinReq, cl.MaxReq)
	}
	return nil
}
