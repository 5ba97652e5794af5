package mat

import (
	"math"
	"math/bits"
	"math/rand/v2"
)

// RNG is a PCG-DXSM generator (O'Neill 2014; math/rand/v2's PCG) with the
// sampling helpers the library needs. Every stochastic component takes an
// explicit *RNG so experiments are exactly reproducible from a seed, and
// every stream matches rand.New(rand.NewPCG(hi, lo)) on the state NewRNG
// derives, draw for draw: TestRNGMatchesPCG and FuzzRNGMatchesPCG pin it.
//
// The generator's whole state is the source's two words: the rand.Rand over
// it keeps none of its own. So State and Restore copy two words, and a
// restored generator continues bit for bit where the saved one stopped.
// Float64, Uniform, Int63 and Split draw from the source directly;
// rand.Rand serves Intn and the ziggurat samplers through the same source.
type RNG struct {
	src pcg       // by value: the state rides in the RNG's allocation
	r   rand.Rand // by value too, over &src: one allocation per RNG
}

// pcg is math/rand/v2's PCG, copied so that its two words can be read and
// set without an allocation (rand.PCG exposes them only through
// MarshalBinary before Go 1.24).
type pcg struct{ hi, lo uint64 }

// Uint64 is rand.PCG.Uint64: one step of the 128-bit LCG, then the DXSM
// ("double xorshift multiply") output permutation.
func (p *pcg) Uint64() uint64 {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.hi, p.lo = hi, lo
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// SplitMix is the splitmix64 finalizer (Steele, Lea & Flood 2014, with
// Vigna's constants): a bijection that spreads every input bit over the
// output. NewRNG derives its state from it, and the workload and fault
// packages derive their per-component seeds from it.
func SplitMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// Golden is splitmix64's increment, 2^64 over the golden ratio: adding
// k·Golden to a seed before SplitMix gives a splitmix64 generator's output k.
const Golden = 0x9E3779B97F4A7C15

// NewRNG returns a deterministic RNG seeded with seed: its two state words
// are the first two outputs of a splitmix64 generator started at seed.
func NewRNG(seed int64) *RNG {
	x := uint64(seed) + Golden
	g := &RNG{src: pcg{SplitMix(x), SplitMix(x + Golden)}}
	g.r = *rand.New(&g.src)
	return g
}

// State returns the generator's two PCG state words, which fully determine
// the stream position.
func (g *RNG) State() (hi, lo uint64) { return g.src.hi, g.src.lo }

// Restore sets this generator to a saved State in place, after which it
// produces the exact continuation of the saved stream. Every pair of words
// is a valid state. In-place restoration matters: components hold *RNG
// fields, so no pointer replumbing is needed.
func (g *RNG) Restore(hi, lo uint64) { g.src = pcg{hi, lo} }

// Float64 returns a uniform sample in [0, 1): rand.Rand.Float64.
func (g *RNG) Float64() float64 { return float64(g.src.Uint64()<<11>>11) / (1 << 53) }

// Intn returns a uniform sample in [0, n): rand.Rand.IntN. It panics if
// n <= 0.
func (g *RNG) Intn(n int) int { return g.r.IntN(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer: rand.Rand.Int64.
func (g *RNG) Int63() int64 { return int64(g.src.Uint64() &^ (1 << 63)) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, std float64) float64 {
	return mean + std*g.r.NormFloat64()
}

// LogNormal returns exp(Normal(mu, sigma)): a log-normal sample whose
// underlying normal has mean mu and standard deviation sigma.
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exponential returns an exponential sample with the given rate (1/mean).
// It panics if rate <= 0.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("mat: Exponential requires rate > 0")
	}
	return g.r.ExpFloat64() / rate
}

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// Split derives a new independent RNG from this one, seeded with its next
// draw. It is used to hand deterministic sub-streams to components (one per
// server, one per network) without sharing mutable state.
func (g *RNG) Split() *RNG { return NewRNG(int64(g.src.Uint64())) }

// FillXavier initializes m with Xavier/Glorot uniform samples scaled for
// fanIn inputs and fanOut outputs: U(-sqrt(6/(in+out)), +sqrt(6/(in+out))).
func (g *RNG) FillXavier(m *Dense, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = g.Uniform(-limit, limit)
	}
}

// FillNormal initializes m with Gaussian samples.
func (g *RNG) FillNormal(m *Dense, mean, std float64) {
	for i := range m.Data {
		m.Data[i] = g.Normal(mean, std)
	}
}

// FillVecNormal initializes v with Gaussian samples.
func (g *RNG) FillVecNormal(v Vec, mean, std float64) {
	for i := range v {
		v[i] = g.Normal(mean, std)
	}
}
