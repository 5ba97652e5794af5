package telemetry

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"

	"hierdrl/internal/checkpoint"
)

// relBound is the histogram's error bound: a bucket spans 2^-6 of its lower
// bound, so its midpoint is within 2^-7 of every sample in it.
const relBound = 1.0 / 128

// TestHistogramErrorBound pins the hard bound over a grid of 1,001 quantiles
// on distributions whose samples all lie in the histogram's range or are
// exactly zero: |Quantile(q) − exact| ≤ 2^-7·exact, where exact is the order
// statistic of rank ⌊q·(n−1)⌋ (the rank the Summary percentiles read). Rank 0
// and rank n−1 read the exact min and max.
func TestHistogramErrorBound(t *testing.T) {
	for _, c := range []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 7200 }},
		// Pareto(xm=60, alpha=1.5): heavy upper tail, like job latency.
		{"pareto", func(r *rand.Rand) float64 { return 60 * math.Pow(1-r.Float64(), -1/1.5) }},
		// Log-normal around 650 s with a fifth of the samples exactly zero,
		// like queue waits on a lightly loaded cluster.
		{"lognormal", func(r *rand.Rand) float64 {
			if r.Float64() < 0.2 {
				return 0
			}
			return 650 * math.Exp(0.9*r.NormFloat64())
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var h Histogram
			samples := make([]float64, 200000)
			for i := range samples {
				samples[i] = c.draw(rng)
				h.Add(samples[i])
			}
			sort.Float64s(samples)
			n := len(samples)
			for k := 0; k <= 1000; k++ {
				q := float64(k) / 1000
				got, exact := h.Quantile(q), samples[int(q*float64(n-1))]
				if math.Abs(got-exact) > relBound*exact {
					t.Fatalf("q=%v: %v, exact %v (rel err %.3g > 2^-7)", q, got, exact, math.Abs(got-exact)/exact)
				}
			}
			if h.Quantile(0) != samples[0] || h.Quantile(1) != samples[n-1] {
				t.Errorf("q=0, 1 read %v, %v; want min %v, max %v", h.Quantile(0), h.Quantile(1), samples[0], samples[n-1])
			}
			if h.Count() != int64(n) {
				t.Errorf("count %d, want %d", h.Count(), n)
			}
		})
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	var h Histogram
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("empty histogram quantile = %v, want NaN", h.Quantile(0.5))
	}
	h.Add(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single-sample histogram q=%v = %v, want 42", q, got)
		}
	}
	h.Add(math.NaN())
	if got := h.Count(); got != 1 {
		t.Fatalf("NaN was counted: count %v", got)
	}
}

// TestHistogramRangeEdges pins the bucket index at the range's ends: the
// range's lower bound opens bucket 1, anything below it (negative and tiny
// values) shares the zero bucket, and +Inf clamps to the top bucket.
func TestHistogramRangeEdges(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want int
	}{
		{math.Inf(-1), 0}, {-1, 0}, {math.Copysign(0, -1), 0}, {0, 0},
		{math.Nextafter(rangeLo, 0), 0}, {rangeLo, 1}, {rangeLo * (1 + 1.0/64), 2},
		{math.Ldexp(1, maxExp) * (1 - 1.0/1024), numBuckets - 1},
		{math.Ldexp(1, maxExp), numBuckets - 1}, {math.Inf(1), numBuckets - 1},
	} {
		if got := bucketOf(c.x); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.x, got, c.want)
		}
	}
	// Zero-bucket ranks read 0 clamped to [min, max].
	var h Histogram
	for _, x := range []float64{1e-9, 2e-9, 3e-9, 5} {
		h.Add(x)
	}
	if got := h.Quantile(0.4); got != 1e-9 {
		t.Errorf("zero-bucket rank read %v, want the min 1e-9", got)
	}
}

func roundTrip(t *testing.T, from, into checkpoint.Stateful) {
	t.Helper()
	wr := checkpoint.NewWriter(0)
	from.State(wr.Section("t"))
	var buf bytes.Buffer
	if _, err := wr.WriteTo(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	rd, err := checkpoint.NewReader(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	dec, err := rd.Section("t")
	if err != nil {
		t.Fatalf("section: %v", err)
	}
	if into.State(dec); dec.Err() != nil {
		t.Fatalf("restore: %v", dec.Err())
	}
}

func TestHistogramCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := new(Histogram)
	for k := 0; k < 50000; k++ {
		h.Add(rng.ExpFloat64() * 300)
	}
	back := new(Histogram)
	back.Add(7) // restore overwrites whatever the target held
	roundTrip(t, h, back)
	if *back != *h {
		t.Fatal("restored histogram differs from the one saved")
	}
	// The restored histogram must remain usable: keep adding.
	back.Add(1)
	if got := back.Count(); got != h.Count()+1 {
		t.Fatalf("post-restore add: count %v", got)
	}
}

func TestSketchSetCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sk := new(SketchSet)
	for k := 0; k < 60000; k++ {
		lat := rng.ExpFloat64() * 500
		sk.Record(JobClassOf(60+rng.Float64()*7000), lat, lat*0.1)
	}
	back := new(SketchSet)
	roundTrip(t, sk, back)
	if *back != *sk {
		t.Fatal("restored sketch set differs from the one saved")
	}
	// Payloads encoding never writes are rejected, not silently accepted.
	hist := func(min, max float64, pairs ...int64) []byte {
		var c checkpoint.Codec
		c.F64(&min)
		c.F64(&max)
		n := len(pairs) / 2
		c.Int(&n)
		for k, p := range pairs {
			if k%2 == 0 {
				i := int32(p)
				c.I32(&i)
			} else {
				c.I64(&p)
			}
		}
		return c.Payload()
	}
	b5 := int64(bucketOf(5))
	for name, payload := range map[string][]byte{
		"descending buckets":   hist(5, 10, int64(bucketOf(10)), 1, b5, 1),
		"repeated bucket":      hist(5, 5, b5, 1, b5, 1),
		"zero count":           hist(5, 5, b5, 0),
		"bucket out of range":  hist(5, 5, numBuckets, 1),
		"negative bucket":      hist(5, 5, -1, 1),
		"count overflow":       hist(5, 10, b5, math.MaxInt64, int64(bucketOf(10)), 1),
		"min outside buckets":  hist(4, 5, b5, 2),
		"max outside buckets":  hist(5, 6, b5, 2),
		"NaN max":              hist(5, math.NaN(), b5, 2),
		"empty with extremes":  hist(5, 5),
		"truncated pair":       hist(5, 5, b5),
		"more pairs than room": hist(5, 5, b5, 1)[:30],
	} {
		dec := checkpoint.NewDec("t", payload)
		new(Histogram).State(dec)
		if err := dec.End(); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLatencyIsClassSum pins the derived overall histogram: over random
// completion streams that span every class, fall below and above the
// histogram's range and carry NaNs, Latency equals a Histogram that was fed
// every latency directly, as a whole struct, and so reads the same bits at
// every quantile. Each stream puts its smallest and largest latency in a
// different class, so every class's extremes must reach the sum.
func TestLatencyIsClassSum(t *testing.T) {
	var empty SketchSet
	if got := empty.Latency(); got != (Histogram{}) {
		t.Fatal("an empty set's latency histogram is not empty")
	}
	for top := range NumJobClasses {
		var sk SketchSet
		var ref Histogram
		record := func(class int, lat, wait float64) {
			sk.Record(class, lat, wait)
			ref.Add(lat)
		}
		rng := rand.New(rand.NewSource(int64(31 + top)))
		for k := 0; k < 100000; k++ {
			var lat float64
			switch r := rng.Float64(); {
			case r < 0.01:
				lat = math.NaN()
			case r < 0.05:
				lat = rng.Float64() * math.Ldexp(1, minExp) // below the range
			case r < 0.09:
				lat = math.Ldexp(1+rng.Float64(), maxExp) // above it
			default:
				lat = 60 * math.Exp(2*rng.NormFloat64())
			}
			record(rng.Intn(NumJobClasses), lat, rng.ExpFloat64())
		}
		record(top, math.SmallestNonzeroFloat64, 0)
		record(top, math.Ldexp(1, maxExp+2), 0)
		got := sk.Latency()
		if got != ref {
			t.Fatalf("extremes in class %s: summed classes (n %d, min %v, max %v) differ from the reference (n %d, min %v, max %v)",
				JobClassNames[top], got.n, got.min, got.max, ref.n, ref.min, ref.max)
		}
		for k := 0; k <= 1000; k++ {
			q := float64(k) / 1000
			if g, w := got.Quantile(q), ref.Quantile(q); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("extremes in class %s, q=%v: %v, reference %v", JobClassNames[top], q, g, w)
			}
		}
	}
}

func TestJobClassOf(t *testing.T) {
	cases := []struct {
		d    float64
		want int
	}{{60, ClassShort}, {599.9, ClassShort}, {600, ClassMedium}, {3599, ClassMedium}, {3600, ClassLong}, {7200, ClassLong}}
	for _, c := range cases {
		if got := JobClassOf(c.d); got != c.want {
			t.Errorf("JobClassOf(%v) = %s, want %s", c.d, JobClassNames[got], JobClassNames[c.want])
		}
	}
}

// TestHistogramAddZeroAlloc pins the hot paths: Histogram.Add,
// SketchSet.Record and a Quantile read allocate nothing, and the set's fixed
// footprint is exactly its four histograms. This pin runs under -race too
// (obs-smoke).
func TestHistogramAddZeroAlloc(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(19))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 100
	}
	i := 0
	if avg := testing.AllocsPerRun(20000, func() {
		h.Add(vals[i%len(vals)])
		i++
	}); avg != 0 {
		t.Fatalf("Histogram.Add allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { h.Quantile(0.99) }); avg != 0 {
		t.Fatalf("Histogram.Quantile allocates %v/op, want 0", avg)
	}
	sk := new(SketchSet)
	k := 0
	if avg := testing.AllocsPerRun(20000, func() {
		sk.Record(k%NumJobClasses, vals[k%len(vals)], vals[(k+7)%len(vals)])
		k++
	}); avg != 0 {
		t.Fatalf("SketchSet.Record allocates %v/op, want 0", avg)
	}
	if size, want := unsafe.Sizeof(*sk), 4*unsafe.Sizeof(Histogram{}); size != want || size != 90240 {
		t.Fatalf("SketchSet is %d bytes, want four %d-byte histograms, 90240", size, unsafe.Sizeof(Histogram{}))
	}
}

// FuzzSketchState decodes arbitrary bytes as a SketchSet: every input is
// either refused with ErrCorrupt or decodes to a set that re-encodes to
// exactly the bytes it was read from, and whose quantiles can be read.
func FuzzSketchState(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	sk := new(SketchSet)
	var enc checkpoint.Codec
	sk.State(&enc)
	f.Add(enc.Payload())
	for k := 0; k < 300; k++ {
		lat := rng.ExpFloat64() * 500
		sk.Record(JobClassOf(60+rng.Float64()*7000), lat, math.Floor(rng.Float64()*3)*lat)
	}
	enc = checkpoint.Codec{}
	sk.State(&enc)
	f.Add(enc.Payload())

	f.Fuzz(func(t *testing.T, data []byte) {
		var got SketchSet
		dec := checkpoint.NewDec("t", data)
		got.State(dec)
		if err := dec.End(); err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		var again checkpoint.Codec
		got.State(&again)
		if !bytes.Equal(again.Payload(), data) {
			t.Fatalf("accepted payload re-encodes differently (%d vs %d bytes)", len(again.Payload()), len(data))
		}
		lat := got.Latency()
		for _, h := range []*Histogram{&lat, got.Wait()} {
			if v := h.Quantile(0.5); h.Count() > 0 && !(v >= h.Quantile(0) && v <= h.Quantile(1)) {
				t.Fatalf("median %v outside [min, max] = [%v, %v]", v, h.Quantile(0), h.Quantile(1))
			}
		}
	})
}
