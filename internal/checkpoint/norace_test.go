//go:build !race

package checkpoint

import (
	"math"
	"strings"
	"testing"

	"hierdrl/internal/mat"
)

// TestCodecPrimitivesAllocateNothing pins the codec's allocations: every
// encoding primitive writes into the open chunk without allocating once that
// chunk has room, and every decoding primitive that fills a field or a
// caller's slice reads without allocating.
func TestCodecPrimitivesAllocateNothing(t *testing.T) {
	var (
		b       = true
		i32     = int32(-7)
		i64     = int64(1) << 40
		n       = 12
		f       = math.Pi
		bs      = []byte(strings.Repeat("config ", 8))
		fs      = []float64{1, 2, 3, 4}
		is      = []int64{5, -6}
		prev    = []float64{1, 2, 3, 4, 5, 6, 7, 8}
		cur     = []float64{1, 2, 0, 4, 5, math.NaN(), 7, 8}
		rng     = mat.NewRNG(3)
		counted int
	)
	rng.Float64()
	walks := []struct {
		name   string
		walk   func(c *Codec)
		decode bool // decoding is pinned as well
	}{
		{"Bool", func(c *Codec) { c.Bool(&b) }, true},
		{"I32", func(c *Codec) { c.I32(&i32) }, true},
		{"I64", func(c *Codec) { c.I64(&i64) }, true},
		{"Int", func(c *Codec) { c.Int(&n) }, true},
		{"F64", func(c *Codec) { c.F64(&f) }, true},
		{"Count", func(c *Codec) { counted = c.Count(n, 1) }, true},
		{"F64sFixed", func(c *Codec) { c.F64sFixed(fs) }, true},
		{"F64sDelta", func(c *Codec) { c.F64sDelta(prev, cur) }, true},
		{"RNG", func(c *Codec) { c.RNG(rng) }, true},
		{"Bytes", func(c *Codec) { c.Bytes(&bs) }, false},
		{"F64s", func(c *Codec) { c.F64s(&fs) }, false},
		{"I64s", func(c *Codec) { c.I64s(&is) }, false},
	}
	for _, w := range walks {
		t.Run(w.name, func(t *testing.T) {
			enc := &Codec{}
			enc.grow(minChunk)
			allocs := testing.AllocsPerRun(100, func() {
				enc.chunks[0] = enc.chunks[0][:0]
				w.walk(enc)
			})
			if allocs != 0 {
				t.Errorf("encoding allocates %v times", allocs)
			}
			if !w.decode {
				return
			}
			// Count is bounded by the bytes after it: pad the payload.
			dec := NewDec(w.name, append(enc.Payload(), make([]byte, 64)...))
			allocs = testing.AllocsPerRun(100, func() {
				dec.off = 0
				w.walk(dec)
			})
			if err := dec.Err(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("decoding allocates %v times", allocs)
			}
		})
	}
	if counted != n {
		t.Fatalf("Count read %d, want %d", counted, n)
	}
}
