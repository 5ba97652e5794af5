package mat

import (
	"math"
	"math/rand"
)

// RNG carries a copy of math/rand's default source — the additive lagged
// Fibonacci generator of rng.go (Mitchell & Reeds; 607 words, tap 273) —
// and the sampling helpers the library needs. Every stochastic component
// takes an explicit *RNG so experiments are exactly reproducible from a
// seed, and every stream matches rand.New(rand.NewSource(seed)) draw for
// draw: TestRNGMatchesBareMathRand and FuzzRNGMatchesMathRand pin it.
//
// The source counts its own draws, which makes the full generator state
// serializable as the pair (seed, draws): every draw advances the register
// by exactly one step, and rand.Rand keeps no state of its own outside the
// source (the Read buffer is never used here). Restore re-seeds and replays
// that many steps, so a restored chain continues bit for bit where the saved
// one stopped. Float64, Intn (n < 2^31), Int63, Uniform and Split draw from
// the source directly with rand.Rand's algorithms; rand.Rand still serves the
// ziggurat samplers, Perm, Shuffle and Intn's 63-bit path through the same
// source.
type RNG struct {
	r    *rand.Rand
	seed int64
	src  source // by value: the register rides in the RNG's allocation
}

const (
	rngLen   = 607
	rngTap   = 273
	rngFeed  = rngLen - rngTap // the feed index right after seeding
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the seeding LCG's prime modulus
	lcgMul   = 48271
	// seedWarmup is how many LCG terms math/rand's Seed discards before the
	// first register word.
	seedWarmup = 20
)

var (
	// rngPow[i][k] is lcgMul^(seedWarmup+3i+k+1) mod int32max: the LCG
	// started at seed s reaches s·rngPow[i][k] on the term that feeds bits
	// (2-k)·20 of register word i, so every term is one multiply away from
	// the seed instead of waiting on the term before it.
	rngPow [rngLen][3]uint64
	// rngCooked is math/rand's rngCooked table, XORed into the register
	// after the LCG terms. init derives it from math/rand's own stream.
	rngCooked [rngLen]uint64
)

// mulmod returns a·b mod 2^31−1 for a, b in [1, 2^31−1): the product's high
// and low 31-bit halves fold into a sum below twice the modulus, and one
// conditional subtraction finishes the reduction.
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p&int32max + p>>31
	if r >= int32max {
		r -= int32max
	}
	return r
}

func init() {
	p := uint64(1)
	for range seedWarmup {
		p = mulmod(p, lcgMul)
	}
	for i := range rngPow {
		for k := range rngPow[i] {
			p = mulmod(p, lcgMul)
			rngPow[i][k] = p
		}
	}

	// Recover the register v a standard seed-1 source starts from out of its
	// first rngLen draws: draw j (from 1) adds v[tap] to v[feed], tap runs
	// down from rngLen-1 and feed from rngFeed-1, and a tap word read from
	// j = rngTap+1 on was itself rewritten by draw j-rngTap.
	std := rand.NewSource(1).(rand.Source64)
	var x [rngLen + 1]uint64
	for j := 1; j <= rngLen; j++ {
		x[j] = std.Uint64()
	}
	var v [rngLen]uint64
	for j := rngFeed + 1; j <= rngLen; j++ {
		v[rngLen+rngFeed-j] = x[j] - x[j-rngTap]
	}
	for j := rngTap + 1; j <= rngFeed; j++ {
		v[rngFeed-j] = x[j] - x[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		v[rngFeed-j] = x[j] - v[rngLen-j]
	}
	// With rngCooked still zero, seeding yields the bare LCG register.
	var raw source
	raw.seed(1)
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ raw.vec[i]
	}
}

// source is math/rand's rngSource plus a draw counter. It implements
// rand.Source64, so the rand.Rand built on it routes every draw through
// Int63/Uint64, one step per call, exactly as with the bare source.
type source struct {
	vec       [rngLen]uint64
	tap, feed int
	n         int64 // draws served since seeding
}

// seed is math/rand's rngSource.Seed: the same normalisation of the seed,
// the same LCG terms (each computed from rngPow) and the same cooking.
func (s *source) seed(seed int64) {
	s.tap, s.feed, s.n = 0, rngFeed, 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &rngPow[i]
		s.vec[i] = mulmod(x, p[0])<<40 ^ mulmod(x, p[1])<<20 ^ mulmod(x, p[2]) ^ rngCooked[i]
	}
}

// skip advances the register n draws without counting them: the additions
// n calls to Uint64 make, in the same order, run in stretches where neither
// index wraps. The tap word a draw reads is the one feed wrote rngTap draws
// before, possibly earlier in the same stretch: the loop runs downwards, as
// the draws do, so it reads the written word just as step-by-step draws do.
func (s *source) skip(n int64) {
	for n > 0 {
		if s.tap == 0 {
			s.tap = rngLen
		}
		if s.feed == 0 {
			s.feed = rngLen
		}
		c := min(s.tap, s.feed)
		if int64(c) > n {
			c = int(n)
		}
		s.tap -= c
		s.feed -= c
		fv := s.vec[s.feed : s.feed+c]
		tv := s.vec[s.tap : s.tap+c]
		for k := len(fv) - 1; k >= 0; k-- {
			fv[k] += tv[k]
		}
		n -= int64(c)
	}
}

func (s *source) Uint64() uint64 {
	s.n++
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

func (s *source) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *source) Seed(seed int64) { s.seed(seed) }

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{seed: seed}
	g.src.seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// State returns the serializable generator state: the construction seed and
// the number of source draws served since (re)seeding. The pair fully
// determines the stream position.
func (g *RNG) State() (seed, draws int64) { return g.seed, g.src.n }

// Restore rewinds this generator to the given (seed, draws) state in place:
// the source is re-seeded (~3 µs) and fast-forwarded by draws steps (~0.45
// ns each on a 2.1 GHz Xeon), after which the generator produces the exact
// continuation of the saved stream. In-place restoration matters:
// components hold *RNG fields, so no pointer replumbing is needed.
func (g *RNG) Restore(seed, draws int64) {
	if draws < 0 {
		panic("mat: RNG.Restore negative draw count")
	}
	g.seed = seed
	g.src.seed(seed)
	g.src.skip(draws)
	g.src.n = draws
}

// Float64 returns a uniform sample in [0, 1): rand.Rand.Float64, which
// redraws the O(never) Int63 that rounds up to 1.
func (g *RNG) Float64() float64 {
	for {
		if f := float64(g.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a uniform sample in [0, n). For n < 2^31 it is
// rand.Rand.Int31n (mask a power of two, else reject above the largest
// multiple of n) on the source's top 31 bits; invalid and larger n go to
// rand.Rand.Intn.
func (g *RNG) Intn(n int) int {
	if n <= 0 || n > int32max {
		return g.r.Intn(n)
	}
	n32 := int32(n)
	if n32&(n32-1) == 0 {
		return int(int32(g.src.Int63()>>32) & (n32 - 1))
	}
	lim := int32(int32max - (1<<31)%uint32(n32))
	v := int32(g.src.Int63() >> 32)
	for v > lim {
		v = int32(g.src.Int63() >> 32)
	}
	return int(v % n32)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.src.Int63() }

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

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Split derives a new independent RNG from this one. It is used to hand
// deterministic sub-streams to components (one per server, one per network)
// without sharing mutable state.
func (g *RNG) Split() *RNG { return NewRNG(g.src.Int63()) }

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
