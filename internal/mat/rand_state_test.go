package mat

import (
	"math/rand"
	"testing"
)

// The counting wrapper must be invisible: every draw sequence has to match
// a bare math/rand generator with the same seed, because the repository's
// golden results pin those exact streams.
func TestRNGMatchesBareMathRand(t *testing.T) {
	g := NewRNG(42)
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		switch i % 6 {
		case 0:
			if a, b := g.Float64(), ref.Float64(); a != b {
				t.Fatalf("Float64 draw %d: %v != %v", i, a, b)
			}
		case 1:
			if a, b := g.Intn(97), ref.Intn(97); a != b {
				t.Fatalf("Intn draw %d: %d != %d", i, a, b)
			}
		case 2:
			if a, b := g.Int63(), ref.Int63(); a != b {
				t.Fatalf("Int63 draw %d: %d != %d", i, a, b)
			}
		case 3:
			if a, b := g.Normal(1, 2), 1+2*ref.NormFloat64(); a != b {
				t.Fatalf("Normal draw %d: %v != %v", i, a, b)
			}
		case 4:
			if a, b := g.Exponential(0.5), ref.ExpFloat64()/0.5; a != b {
				t.Fatalf("Exponential draw %d: %v != %v", i, a, b)
			}
		case 5:
			ap, bp := g.Perm(7), ref.Perm(7)
			for k := range ap {
				if ap[k] != bp[k] {
					t.Fatalf("Perm draw %d: %v != %v", i, ap, bp)
				}
			}
		}
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
