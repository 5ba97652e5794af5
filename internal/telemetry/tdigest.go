// Package telemetry is the live-observability core: mergeable quantile
// sketches (t-digest), counters and gauges rendered as Prometheus text, the
// /metrics + /healthz + /snapshot + pprof HTTP endpoint, and the
// decision-epoch trace ring. Everything on the simulation hot path is
// allocation-free once warm, and everything the HTTP goroutine reads is an
// immutable published blob — the simulation's own state is never touched off
// the driver goroutine (DESIGN.md §17).
package telemetry

import (
	"math"
	"sort"

	"hierdrl/internal/checkpoint"
)

// DefaultCompression is the t-digest compression δ used by the session
// sketches: ~δ centroids bound the memory, and the quantile error in
// q-space shrinks as q(1-q)/δ toward the tails (p99 on latency-like
// distributions is typically within a few tenths of a percent relative).
const DefaultCompression = 100

// TDigest is a merging t-digest (Dunning's MergingDigest with the k1
// arcsine scale function): a fixed-memory quantile sketch whose centroids
// concentrate toward the tails. Adds land in a buffer and are folded into
// the centroid set when it fills, so the amortized hot path is one bounds
// check and two stores — zero allocations once constructed.
//
// Determinism contract: the digest state after any sequence of Add calls is
// a pure function of the inserted multiset *and insertion order*; MergedInto
// re-sorts all centroids by (mean, weight) before a single compression pass,
// so a merged digest is bitwise independent of the order its parts are given
// in.
type TDigest struct {
	comp float64

	// Sorted centroid set (mean ascending, len(mean) == len(weight)).
	mean   []float64
	weight []float64

	count    float64 // total weight folded into the centroid set
	min, max float64

	// Insertion buffer, folded at flush.
	buf  []float64
	bufn int

	// gather/scratch arrays reused by flush and compress; pre-sized so the
	// steady-state flush path never allocates.
	gm, gw []float64
	sm, sw []float64
	ps     pairSorter
}

// NewTDigest returns a digest with compression δ (δ < 20 is raised to 20).
func NewTDigest(compression float64) *TDigest {
	t := &TDigest{}
	t.Init(compression)
	return t
}

// Init (re)initializes a zero-value digest in place — SketchSet holds
// digests by value to keep them cache-adjacent.
func (t *TDigest) Init(compression float64) {
	if compression < 20 {
		compression = 20
	}
	t.comp = compression
	maxC := 2*int(math.Ceil(compression)) + 16
	bufCap := 5 * int(math.Ceil(compression))
	t.mean = make([]float64, 0, maxC)
	t.weight = make([]float64, 0, maxC)
	t.buf = make([]float64, bufCap)
	t.gm = make([]float64, 0, maxC+bufCap)
	t.gw = make([]float64, 0, maxC+bufCap)
	t.sm = make([]float64, 0, maxC)
	t.sw = make([]float64, 0, maxC)
	t.resetStats()
}

func (t *TDigest) resetStats() {
	t.mean = t.mean[:0]
	t.weight = t.weight[:0]
	t.count = 0
	t.bufn = 0
	t.min = math.Inf(1)
	t.max = math.Inf(-1)
}

// Reset empties the digest, keeping its buffers.
func (t *TDigest) Reset() { t.resetStats() }

// Add inserts one sample. NaN is ignored (latency samples are always
// finite; a NaN would poison every centroid mean). Zero allocations: the
// sample lands in the preallocated buffer, and the amortized flush sorts
// and compresses entirely within preallocated scratch.
func (t *TDigest) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	t.buf[t.bufn] = x
	t.bufn++
	if t.bufn == len(t.buf) {
		t.flush()
	}
}

// Count returns the total number of samples inserted.
func (t *TDigest) Count() float64 { return t.count + float64(t.bufn) }

// Min and Max return the exact observed extremes (+Inf/-Inf when empty).
func (t *TDigest) Min() float64 { return t.min }
func (t *TDigest) Max() float64 { return t.max }

// flush folds the insertion buffer into the centroid set: sort the buffer,
// two-stream merge with the (already sorted) centroids into the gather
// arrays, then one size-bound compression pass. All within preallocated
// scratch — no allocation.
func (t *TDigest) flush() {
	if t.bufn == 0 {
		return
	}
	b := t.buf[:t.bufn]
	sort.Float64s(b)
	gm, gw := t.gm[:0], t.gw[:0]
	i, j := 0, 0
	for i < len(t.mean) || j < len(b) {
		if j >= len(b) || (i < len(t.mean) && t.mean[i] <= b[j]) {
			gm = append(gm, t.mean[i])
			gw = append(gw, t.weight[i])
			i++
		} else {
			gm = append(gm, b[j])
			gw = append(gw, 1)
			j++
		}
	}
	t.gm, t.gw = gm, gw
	t.bufn = 0
	t.compressSorted(gm, gw)
}

// qLimit is the k1 scale function's weight boundary: the largest quantile a
// centroid starting at q0 may span, k⁻¹(k(q0) + 1) with
// k(q) = (δ/2π)·asin(2q-1).
func qLimit(q0, comp float64) float64 {
	v := 2*q0 - 1
	if v < -1 {
		v = -1
	} else if v > 1 {
		v = 1
	}
	a := math.Asin(v) + 2*math.Pi/comp
	if a >= math.Pi/2 {
		return 1
	}
	return (math.Sin(a) + 1) / 2
}

// compressSorted rebuilds the centroid set from a sorted weighted stream,
// greedily merging neighbors while the k1 weight bound allows. The output
// size is bounded by ~δ regardless of input length, so the preallocated
// scratch never grows in steady state.
func (t *TDigest) compressSorted(ms, ws []float64) {
	total := 0.0
	for _, w := range ws {
		total += w
	}
	om, ow := t.sm[:0], t.sw[:0]
	if len(ms) > 0 {
		curM, curW := ms[0], ws[0]
		wSoFar := 0.0
		limit := qLimit(0, t.comp) * total
		for k := 1; k < len(ms); k++ {
			m, w := ms[k], ws[k]
			if wSoFar+curW+w <= limit {
				curM += w * (m - curM) / (curW + w)
				curW += w
			} else {
				om = append(om, curM)
				ow = append(ow, curW)
				wSoFar += curW
				limit = qLimit(wSoFar/total, t.comp) * total
				curM, curW = m, w
			}
		}
		om = append(om, curM)
		ow = append(ow, curW)
	}
	// Swap: the old centroid arrays become next flush's scratch.
	t.mean, t.sm = om, t.mean[:0]
	t.weight, t.sw = ow, t.weight[:0]
	t.count = total
}

// Quantile returns the value at quantile q in [0, 1] (NaN when empty),
// interpolating piecewise-linearly between centroid midpoints with the
// exact min/max as endpoints.
func (t *TDigest) Quantile(q float64) float64 {
	t.flush()
	n := len(t.mean)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	if n == 1 {
		return t.mean[0]
	}
	target := q * t.count
	// Head: below the first centroid's midpoint, interpolate from min.
	if h := t.weight[0] / 2; target <= h {
		return t.min + target/h*(t.mean[0]-t.min)
	}
	cum := 0.0
	for i := 0; i < n-1; i++ {
		lo := cum + t.weight[i]/2
		cum += t.weight[i]
		hi := cum + t.weight[i+1]/2
		if target <= hi {
			return t.mean[i] + (target-lo)/(hi-lo)*(t.mean[i+1]-t.mean[i])
		}
	}
	// Tail: above the last centroid's midpoint, interpolate toward max.
	lo := t.count - t.weight[n-1]/2
	if span := t.count - lo; span > 0 && target < t.count {
		return t.mean[n-1] + (target-lo)/span*(t.max-t.mean[n-1])
	}
	return t.max
}

// pairSorter sorts parallel (mean, weight) arrays by (mean, weight) — a
// total order over centroids, which is what makes MergedInto independent of
// part order: equal means are tie-broken by weight, and centroids equal in
// both coordinates are interchangeable.
type pairSorter struct {
	m, w []float64
}

func (p *pairSorter) Len() int { return len(p.m) }
func (p *pairSorter) Less(i, j int) bool {
	if p.m[i] != p.m[j] {
		return p.m[i] < p.m[j]
	}
	return p.w[i] < p.w[j]
}
func (p *pairSorter) Swap(i, j int) {
	p.m[i], p.m[j] = p.m[j], p.m[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}

// MergedInto resets dst and rebuilds it as the merge of parts: all centroids
// are gathered, sorted by the (mean, weight) total order, and compressed in
// one pass. The result is bitwise identical under any permutation of parts.
// dst may not be one of parts. Parts are flushed but otherwise unchanged.
// This is the publish-time path, not the per-sample hot path; the gather
// arrays grow to fit all parts' centroids on first use.
func MergedInto(dst *TDigest, parts ...*TDigest) {
	dst.Reset()
	need := 0
	for _, p := range parts {
		p.flush()
		need += len(p.mean)
	}
	if cap(dst.gm) < need {
		dst.gm = make([]float64, 0, need)
		dst.gw = make([]float64, 0, need)
	}
	gm, gw := dst.gm[:0], dst.gw[:0]
	for _, p := range parts {
		gm = append(gm, p.mean...)
		gw = append(gw, p.weight...)
		if p.min < dst.min {
			dst.min = p.min
		}
		if p.max > dst.max {
			dst.max = p.max
		}
	}
	dst.gm, dst.gw = gm, gw
	dst.ps.m, dst.ps.w = gm, gw
	sort.Sort(&dst.ps)
	dst.compressSorted(gm, gw)
}

// State implements checkpoint.Stateful. Encoding flushes first, so the byte
// stream is insertion-order canonical up to buffered samples; decoding
// validates the centroids before touching a digest constructed with the same
// compression.
func (t *TDigest) State(c *checkpoint.Codec) {
	if !c.Decoding() {
		t.flush()
	}
	comp, count, min, max, mean, weight := t.comp, t.count, t.min, t.max, t.mean, t.weight
	c.F64(&comp)
	c.F64(&count)
	c.F64(&min)
	c.F64(&max)
	c.F64s(&mean)
	c.F64s(&weight)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	if comp != t.comp {
		c.Fail(checkpoint.ErrCorrupt, "tdigest compression %v, configured %v", comp, t.comp)
		return
	}
	if len(mean) != len(weight) || len(mean) > cap(t.mean) {
		c.Fail(checkpoint.ErrCorrupt, "tdigest %d means, %d weights (cap %d)", len(mean), len(weight), cap(t.mean))
		return
	}
	for i, w := range weight {
		if !(w > 0) || math.IsNaN(mean[i]) {
			c.Fail(checkpoint.ErrCorrupt, "tdigest centroid %d: mean %v weight %v", i, mean[i], w)
			return
		}
		if i > 0 && mean[i] < mean[i-1] {
			c.Fail(checkpoint.ErrCorrupt, "tdigest centroids out of order at %d", i)
			return
		}
	}
	if math.IsNaN(count) || (len(mean) > 0) != (count > 0) {
		c.Fail(checkpoint.ErrCorrupt, "tdigest count %v with %d centroids", count, len(mean))
		return
	}
	t.resetStats()
	t.mean = append(t.mean, mean...)
	t.weight = append(t.weight, weight...)
	t.count = count
	t.min = min
	t.max = max
}
