package mat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rngEdgeSeeds are the seeds math/rand's Seed treats specially: zero and
// its alias 89482311, the LCG modulus 2^31−1 and its multiples (which reduce
// to zero), negative seeds (which wrap), and the int64 extremes.
var rngEdgeSeeds = []int64{
	0, 1, -1, 89482311, int32max, -int32max, 1 << 31, 2 * int32max,
	math.MinInt64, math.MaxInt64,
}

// drawPair makes draw k from g and the same draw from ref, a math/rand
// generator on g's seed, and describes the first difference ("" if none).
// Draw k is a Split whose child's stream is checked too if k is one short of
// a multiple of splitEvery, else kind k%drawKinds. Every kind consumes the
// same source steps on both sides, so a mismatch anywhere desynchronises
// every later draw too.
func drawPair(k int, g *RNG, ref *rand.Rand) string {
	const drawKinds, splitEvery = 13, 250
	if k%splitEvery == splitEvery-1 {
		child, refChild := g.Split(), rand.New(rand.NewSource(ref.Int63()))
		for i := 0; i < 3*drawKinds; i++ {
			if msg := drawPair(i, child, refChild); msg != "" {
				return "Split child " + msg
			}
		}
		return ""
	}
	switch k % drawKinds {
	case 0:
		return eq("Float64", g.Float64(), ref.Float64())
	case 1:
		return eq("Int63", g.Int63(), ref.Int63())
	case 2:
		return eq("Intn(1)", g.Intn(1), ref.Intn(1))
	case 3:
		return eq("Intn(64)", g.Intn(64), ref.Intn(64))
	case 4:
		return eq("Intn(97)", g.Intn(97), ref.Intn(97))
	case 5:
		return eq("Intn(2^31-1)", g.Intn(int32max), ref.Intn(int32max))
	case 6:
		return eq("Intn(2^31)", g.Intn(1<<31), ref.Intn(1<<31))
	case 7:
		return eq("Intn(2^40)", g.Intn(1<<40), ref.Intn(1<<40))
	case 8:
		return eq("Normal", g.Normal(1, 2), 1+2*ref.NormFloat64())
	case 9:
		return eq("Exponential", g.Exponential(0.5), ref.ExpFloat64()/0.5)
	case 10:
		return eq("Uniform", g.Uniform(-3, 5), -3+8*ref.Float64())
	case 11:
		if a, b := g.Perm(7), ref.Perm(7); !slices.Equal(a, b) {
			return fmt.Sprintf("Perm: %v != %v", a, b)
		}
	default:
		a, b := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		g.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		ref.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		if !slices.Equal(a, b) {
			return fmt.Sprintf("Shuffle: %v != %v", a, b)
		}
	}
	return ""
}

func eq[T comparable](name string, a, b T) string {
	if a != b {
		return fmt.Sprintf("%s: %v != %v", name, a, b)
	}
	return ""
}

// The in-package source must be invisible: every draw sequence has to match
// a bare math/rand generator with the same seed, because the repository's
// golden results pin those exact streams. The seeds cover every branch of
// the seed normalisation plus 200 random ones, and each stream runs 5,000
// draws of every kind, Split children included.
func TestRNGMatchesBareMathRand(t *testing.T) {
	seeds := append([]int64(nil), rngEdgeSeeds...)
	pick := rand.New(rand.NewSource(2026))
	for range 200 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if msg := drawPair(i, g, ref); msg != "" {
				t.Fatalf("seed %d, draw %d: %s", seed, i, msg)
			}
		}
	}
}

// FuzzRNGMatchesMathRand lets the fuzzer look for a seed whose stream leaves
// math/rand's within n mixed draws (the kinds start at n's offset), or whose
// Restore to the end of that stream rebuilds a different register.
func FuzzRNGMatchesMathRand(f *testing.F) {
	for _, seed := range rngEdgeSeeds {
		f.Add(seed, uint16(1000))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			if msg := drawPair(int(n)+i, g, ref); msg != "" {
				t.Fatalf("seed %d, draw %d of %d: %s", seed, i, n, msg)
			}
		}
		h := NewRNG(0)
		h.Restore(g.State())
		if h.src != g.src {
			t.Fatalf("seed %d: Restore(%d, %d) rebuilt a different register", seed, seed, g.src.n)
		}
	})
}

// Restore's stretch-wise replay must leave the register exactly where the
// same number of single steps does, across every wrap of either index.
func TestRNGRestoreMatchesStepwise(t *testing.T) {
	ref, g := NewRNG(11), NewRNG(0)
	for draws := int64(0); draws <= 4*rngLen; draws++ {
		g.Restore(11, draws)
		if g.src != ref.src {
			t.Fatalf("Restore(11, %d): register differs from %d steps", draws, draws)
		}
		ref.src.Uint64()
	}
}

// Saving mid-stream and restoring into a fresh generator must continue the
// stream bit for bit, across every sampler (including the variable-draw
// ziggurat samplers).
func TestRNGStateRoundTrip(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1234; i++ {
		g.Normal(0, 1)
		g.Float64()
		g.Exponential(1)
	}
	seed, draws := g.State()
	if seed != 7 {
		t.Fatalf("seed = %d, want 7", seed)
	}

	h := NewRNG(1) // deliberately different construction seed
	h.Restore(seed, draws)
	if s2, d2 := h.State(); s2 != seed || d2 != draws {
		t.Fatalf("restored state (%d,%d) != saved (%d,%d)", s2, d2, seed, draws)
	}
	for i := 0; i < 2000; i++ {
		if a, b := g.Normal(3, 0.5), h.Normal(3, 0.5); a != b {
			t.Fatalf("Normal draw %d after restore: %v != %v", i, a, b)
		}
		if a, b := g.Intn(1000), h.Intn(1000); a != b {
			t.Fatalf("Intn draw %d after restore: %d != %d", i, a, b)
		}
	}
}

// Split children must carry their own (seed, draws) state independent of the
// parent's.
func TestRNGSplitState(t *testing.T) {
	g := NewRNG(99)
	child := g.Split()
	child.Float64()
	child.Float64()
	seed, draws := child.State()

	clone := NewRNG(0)
	clone.Restore(seed, draws)
	for i := 0; i < 100; i++ {
		if a, b := child.Float64(), clone.Float64(); a != b {
			t.Fatalf("split child draw %d: %v != %v", i, a, b)
		}
	}
	if draws == 0 {
		t.Fatal("child draws not counted")
	}
}

// Restore lands on the saved stream position whatever the generator drew
// before: after a forward, backward, equal-count and different-seed restore
// the stream must be a fresh generator's that skipped the same draws.
func TestRNGRestoreMatchesSkippedStream(t *testing.T) {
	skipped := func(seed, draws int64) *RNG {
		r := NewRNG(seed)
		for i := int64(0); i < draws; i++ {
			r.Int63()
		}
		return r
	}
	cases := []struct {
		name        string
		drawn       int64 // draws the generator made from seed 5 before Restore
		seed, draws int64
	}{
		{"forward", 100, 5, 350},
		{"backward", 350, 5, 100},
		{"equal-count", 200, 5, 200},
		{"from-fresh", 0, 5, 77},
		{"different-seed", 200, 6, 300},
		{"different-seed-behind", 200, 6, 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := skipped(5, tc.drawn)
			g.Restore(tc.seed, tc.draws)
			if seed, draws := g.State(); seed != tc.seed || draws != tc.draws {
				t.Fatalf("State() = (%d, %d) after Restore(%d, %d)", seed, draws, tc.seed, tc.draws)
			}
			ref := skipped(tc.seed, tc.draws)
			for i := 0; i < 500; i++ {
				if a, b := g.Normal(0, 1), ref.Normal(0, 1); a != b {
					t.Fatalf("draw %d after Restore: %v, fresh generator %v", i, a, b)
				}
			}
			gs, gn := g.State()
			if rs, rn := ref.State(); gs != rs || gn != rn {
				t.Fatalf("State() = (%d, %d) after the same samples, fresh generator (%d, %d)", gs, gn, rs, rn)
			}
		})
	}
}

var rngSink *RNG

// BenchmarkNewRNG times building one generator: a scale-ll session builds
// 8,000 of them, one per server predictor and power manager.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rngSink = NewRNG(int64(i))
	}
}

// BenchmarkRNGRestore times one Restore replaying 716,867 draws: as many as
// the 62 generators of a Hierarchical(30) snapshot taken after 95,000 jobs
// hold between them.
func BenchmarkRNGRestore(b *testing.B) {
	g := NewRNG(1)
	for i := 0; i < b.N; i++ {
		g.Restore(7, 716867)
	}
}
