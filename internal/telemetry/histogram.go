// Package telemetry is the live-observability core: log-bucketed latency
// histograms, counters and gauges rendered as Prometheus text, the
// /metrics + /healthz + /snapshot + pprof HTTP endpoint, and the
// decision-epoch trace ring. Everything on the simulation hot path is
// allocation-free once warm, and everything the HTTP goroutine reads is an
// immutable published blob — the simulation's own state is never touched off
// the driver goroutine (DESIGN.md §17).
package telemetry

import (
	"math"

	"hierdrl/internal/checkpoint"
)

// The histogram's range: samples in [2^minExp, 2^maxExp) seconds — about a
// microsecond to 194 days — fall in one of bucketsPerOctave buckets per
// octave. Below the range is the zero bucket; above it clamps to the top
// bucket.
const (
	minExp           = -20
	maxExp           = 24
	bucketsPerOctave = 64 // the top 6 mantissa bits
	mantissaShift    = 52 - 6
	numBuckets       = 1 + (maxExp-minExp)*bucketsPerOctave // zero bucket first
)

var (
	rangeLo  = math.Ldexp(1, minExp)
	baseBits = math.Float64bits(rangeLo) >> mantissaShift
)

// Histogram is a fixed-memory quantile sketch in the relative-error style of
// DDSketch: a sample's bucket is its IEEE-754 exponent plus its top six
// mantissa bits, so every bucket spans 2^-6 of its lower bound and its
// midpoint lies within 2^-7 (0.78 %) of any sample in it. Count, min and max
// are exact. The zero value is an empty histogram, and Add allocates nothing.
//
// Determinism: the state is a pure function of the inserted multiset — it
// does not depend on insertion order.
type Histogram struct {
	counts   [numBuckets]int64
	n        int64
	min, max float64 // exact extremes; both 0 while n == 0
}

// bucketOf returns x's bucket index.
func bucketOf(x float64) int {
	if !(x >= rangeLo) {
		return 0
	}
	return min(int(math.Float64bits(x)>>mantissaShift-baseBits)+1, numBuckets-1)
}

// Add inserts one sample. NaN is ignored.
func (h *Histogram) Add(x float64) {
	if x != x {
		return
	}
	if h.n == 0 {
		h.min, h.max = x, x
	} else if x < h.min {
		h.min = x
	} else if x > h.max {
		h.max = x
	}
	h.n++
	h.counts[bucketOf(x)]++
}

// merge adds o's samples to h: h becomes the histogram of the union of the
// two multisets, as if every sample of o had been added to h.
func (h *Histogram) merge(o *Histogram) {
	if o.n == 0 {
		return
	}
	if h.n == 0 {
		h.min, h.max = o.min, o.max
	}
	h.min, h.max = min(h.min, o.min), max(h.max, o.max)
	h.n += o.n
	for i, k := range o.counts {
		h.counts[i] += k
	}
}

// Count returns the number of samples inserted.
func (h *Histogram) Count() int64 { return h.n }

// Quantile returns the order statistic of rank ⌊q·(n−1)⌋ (NaN when empty):
// the exact min at rank 0, the exact max at rank n−1, and otherwise the
// midpoint of the rank's bucket clamped to [min, max] — within 2^-7 of the
// true order statistic whenever that lies in the histogram's range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	if !(q > 0) {
		return h.min
	}
	r := h.n - 1
	if q < 1 {
		r = int64(q * float64(h.n-1))
	}
	if r == 0 {
		return h.min
	}
	if r == h.n-1 {
		return h.max
	}
	i := 0
	for ; r >= h.counts[i]; i++ {
		r -= h.counts[i]
	}
	mid := 0.0
	if i > 0 {
		lo := math.Float64frombits((baseBits + uint64(i-1)) << mantissaShift)
		hi := math.Float64frombits((baseBits + uint64(i)) << mantissaShift)
		mid = lo + (hi-lo)/2
	}
	return min(max(mid, h.min), h.max)
}

// State implements checkpoint.Stateful: min, max, then the nonzero buckets
// as (4-byte index, 8-byte count) pairs in ascending index order. The count
// is derived.
// Decoding accepts only what encoding writes — strictly ascending in-range
// indices, positive counts whose sum fits, and extremes that fall in the
// first and last nonzero buckets (both zero when there are none) — so every
// accepted payload re-encodes to its own bytes.
func (h *Histogram) State(c *checkpoint.Codec) {
	c.F64(&h.min)
	c.F64(&h.max)
	nz := 0
	for _, k := range h.counts {
		if k != 0 {
			nz++
		}
	}
	nz = c.Count(nz, 12)
	if c.Decoding() {
		h.counts, h.n = [numBuckets]int64{}, 0
	}
	first, i := -1, int32(-1)
	for ; nz > 0 && c.Err() == nil; nz-- {
		prev := i
		var k int64
		if !c.Decoding() {
			for i++; h.counts[i] == 0; i++ {
			}
			k = h.counts[i]
		}
		c.I32(&i)
		c.I64(&k)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		if i <= prev || i >= numBuckets || k <= 0 || k > math.MaxInt64-h.n {
			c.Fail(checkpoint.ErrCorrupt, "histogram bucket %d (after %d) count %d", i, prev, k)
			return
		}
		if first < 0 {
			first = int(i)
		}
		h.counts[i] = k
		h.n += k
	}
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if h.n == 0 {
		if math.Float64bits(h.min)|math.Float64bits(h.max) != 0 {
			c.Fail(checkpoint.ErrCorrupt, "empty histogram with min %v, max %v", h.min, h.max)
		}
	} else if !(h.min <= h.max) || bucketOf(h.min) != first || bucketOf(h.max) != int(i) {
		c.Fail(checkpoint.ErrCorrupt, "histogram min %v, max %v outside buckets %d..%d", h.min, h.max, first, i)
	}
}
