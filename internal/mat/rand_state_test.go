package mat

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// rngEdgeSeeds are edge seeds: zero, ±1, the int64 extremes, and the
// seeds math/rand's source once treated specially (its zero alias 89482311,
// its LCG modulus 2^31−1, the modulus negated and doubled, and 2^31).
var rngEdgeSeeds = []int64{
	0, 1, -1, 89482311, 1<<31 - 1, -(1<<31 - 1), 1 << 31, 2 * (1<<31 - 1),
	math.MinInt64, math.MaxInt64,
}

// refRNG is math/rand/v2's own generator on the state NewRNG(seed) starts
// from: the first two outputs of a splitmix64 generator at seed.
func refRNG(seed int64) *rand.Rand {
	x := uint64(seed) + Golden
	return rand.New(rand.NewPCG(SplitMix(x), SplitMix(x+Golden)))
}

// drawPair makes draw k from g and the same draw from ref, and describes the
// first difference ("" if none). Draw k is a Split whose child's stream is
// checked too if k is one short of a multiple of splitEvery, else kind
// k%drawKinds. Every kind consumes the same source steps on both sides, so
// a mismatch anywhere desynchronises every later draw too.
func drawPair(k int, g *RNG, ref *rand.Rand) string {
	const drawKinds, splitEvery = 11, 250
	if k%splitEvery == splitEvery-1 {
		child, refChild := g.Split(), refRNG(int64(ref.Uint64()))
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
		return eq("Int63", g.Int63(), ref.Int64())
	case 2:
		return eq("Intn(1)", g.Intn(1), ref.IntN(1))
	case 3:
		return eq("Intn(64)", g.Intn(64), ref.IntN(64))
	case 4:
		return eq("Intn(97)", g.Intn(97), ref.IntN(97))
	case 5:
		return eq("Intn(2^31-1)", g.Intn(1<<31-1), ref.IntN(1<<31-1))
	case 6:
		return eq("Intn(2^40+1)", g.Intn(1<<40+1), ref.IntN(1<<40+1))
	case 7:
		return eq("Normal", g.Normal(1, 2), 1+2*ref.NormFloat64())
	case 8:
		return eq("Exponential", g.Exponential(0.5), ref.ExpFloat64()/0.5)
	case 9:
		return eq("LogNormal", g.LogNormal(-1, 0.5), math.Exp(-1+0.5*ref.NormFloat64()))
	default:
		return eq("Uniform", g.Uniform(-3, 5), -3+8*ref.Float64())
	}
}

func eq[T comparable](name string, a, b T) string {
	if a != b {
		return fmt.Sprintf("%s: %v != %v", name, a, b)
	}
	return ""
}

// The in-package PCG must be invisible: every draw sequence has to match
// math/rand/v2's PCG on the same state, on every toolchain CI builds with.
// The seeds are the edge seeds plus 200 random ones, and each stream runs
// 5,000 draws of every kind, Split children included. A Restore to any
// pair of words, zero and all-ones included, must continue as NewPCG on
// that pair.
func TestRNGMatchesPCG(t *testing.T) {
	seeds := append([]int64(nil), rngEdgeSeeds...)
	pick := rand.New(rand.NewPCG(2026, 0))
	for range 200 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for _, seed := range seeds {
		g, ref := NewRNG(seed), refRNG(seed)
		for i := 0; i < 5000; i++ {
			if msg := drawPair(i, g, ref); msg != "" {
				t.Fatalf("seed %d, draw %d: %s", seed, i, msg)
			}
		}
	}
	for _, w := range [][2]uint64{{0, 0}, {math.MaxUint64, math.MaxUint64}, {1 << 62, 1 << 62}, {1, 0}} {
		g, ref := NewRNG(0), rand.New(rand.NewPCG(w[0], w[1]))
		g.Restore(w[0], w[1])
		for i := 0; i < 1000; i++ {
			if msg := drawPair(i, g, ref); msg != "" {
				t.Fatalf("Restore(%#x, %#x), draw %d: %s", w[0], w[1], i, msg)
			}
		}
	}
}

// SplitMix is splitmix64's finalizer: from state 0 a splitmix64 generator
// outputs SplitMix(k·Golden) for k = 1, 2, 3, the reference sequence.
func TestSplitMixReferenceOutputs(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for k, w := range want {
		if got := SplitMix(uint64(k+1) * Golden); got != w {
			t.Errorf("output %d: %#x, want %#x", k+1, got, w)
		}
	}
}

// FuzzRNGMatchesPCG lets the fuzzer look for a seed whose stream leaves
// math/rand/v2's within n mixed draws (the kinds start at n's offset), or
// whose State, restored into a fresh generator, continues differently.
func FuzzRNGMatchesPCG(f *testing.F) {
	for _, seed := range rngEdgeSeeds {
		f.Add(seed, uint16(1000))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		g, ref := NewRNG(seed), refRNG(seed)
		for i := 0; i < int(n); i++ {
			if msg := drawPair(int(n)+i, g, ref); msg != "" {
				t.Fatalf("seed %d, draw %d of %d: %s", seed, i, n, msg)
			}
		}
		h := NewRNG(seed + 1)
		h.Restore(g.State())
		for i := 0; i < 100; i++ {
			if msg := drawPair(i, h, ref); msg != "" {
				t.Fatalf("seed %d, draw %d after Restore at %d: %s", seed, i, n, msg)
			}
		}
	})
}

// Saving mid-stream and restoring into a fresh generator must continue the
// stream bit for bit, across every sampler (including the variable-draw
// ziggurat samplers), and State must read back the restored words.
func TestRNGStateRoundTrip(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1234; i++ {
		g.Normal(0, 1)
		g.Float64()
		g.Exponential(1)
	}
	hi, lo := g.State()

	h := NewRNG(1) // deliberately different construction seed
	h.Restore(hi, lo)
	if h2, l2 := h.State(); h2 != hi || l2 != lo {
		t.Fatalf("restored state (%#x, %#x) != saved (%#x, %#x)", h2, l2, hi, lo)
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

// Split children must carry their own state, independent of the parent's:
// the parent drawing on does not move a child, and a child's State restores
// its own stream.
func TestRNGSplitState(t *testing.T) {
	g := NewRNG(99)
	child := g.Split()
	child.Float64()
	hi, lo := child.State()
	g.Float64()
	if h2, l2 := child.State(); h2 != hi || l2 != lo {
		t.Fatal("a parent draw moved its split child")
	}

	clone := NewRNG(0)
	clone.Restore(hi, lo)
	for i := 0; i < 100; i++ {
		if a, b := child.Float64(), clone.Float64(); a != b {
			t.Fatalf("split child draw %d: %v != %v", i, a, b)
		}
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
