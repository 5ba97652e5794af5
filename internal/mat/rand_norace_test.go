//go:build !race

package mat

import "testing"

// TestRNGDrawsAllocateNothing pins the generator's allocations: a draw and a
// Restore allocate nothing, and NewRNG allocates only the RNG, which holds
// the source's two words and, by value, the rand.Rand that serves Intn and
// the ziggurat samplers.
// The race detector's instrumentation allocates, hence the build tag.
func TestRNGDrawsAllocateNothing(t *testing.T) {
	g := NewRNG(3)
	cases := []struct {
		name string
		want float64
		fn   func()
	}{
		{"Float64", 0, func() { g.Float64() }},
		{"Intn", 0, func() { g.Intn(97) }},
		{"Int63", 0, func() { g.Int63() }},
		{"Uniform", 0, func() { g.Uniform(-1, 1) }},
		{"Restore", 0, func() { g.Restore(7, 1000) }},
		{"Normal", 0, func() { g.Normal(0, 1) }},
		{"NewRNG", 1, func() { rngSink = NewRNG(7) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.fn); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
}
