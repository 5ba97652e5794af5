package telemetry

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hierdrl/internal/checkpoint"
)

// exactQuantile matches the repo's metrics.percentile index convention
// (sorted, idx = int(q * (n-1))).
func exactQuantile(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1))]
}

// accuracyCase checks that the digest's estimate at q lands inside the
// exact distribution's [q-dq, q+dq] window — the standard t-digest accuracy
// statement (error is bounded in q-space, not value space).
func checkQuantiles(t *testing.T, name string, samples []float64) {
	t.Helper()
	td := NewTDigest(DefaultCompression)
	for _, x := range samples {
		td.Add(x)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	cases := []struct{ q, dq float64 }{
		{0.5, 0.02},
		{0.9, 0.01},
		{0.95, 0.008},
		{0.99, 0.004},
		{0.999, 0.0015},
	}
	for _, c := range cases {
		got := td.Quantile(c.q)
		lo := exactQuantile(sorted, math.Max(0, c.q-c.dq))
		hi := exactQuantile(sorted, math.Min(1, c.q+c.dq))
		if got < lo || got > hi {
			t.Errorf("%s: q=%v estimate %v outside exact window [%v, %v] (exact %v)",
				name, c.q, got, lo, hi, exactQuantile(sorted, c.q))
		}
	}
	if got := td.Quantile(0); got != sorted[0] {
		t.Errorf("%s: q=0 = %v, want min %v", name, got, sorted[0])
	}
	if got := td.Quantile(1); got != sorted[len(sorted)-1] {
		t.Errorf("%s: q=1 = %v, want max %v", name, got, sorted[len(sorted)-1])
	}
	if got, want := td.Count(), float64(len(samples)); got != want {
		t.Errorf("%s: count %v, want %v", name, got, want)
	}
}

func TestTDigestAccuracyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 200000)
	for i := range samples {
		samples[i] = rng.Float64() * 7200
	}
	checkQuantiles(t, "uniform", samples)
}

func TestTDigestAccuracyPareto(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	samples := make([]float64, 200000)
	for i := range samples {
		// Pareto(xm=60, alpha=1.5): heavy upper tail, like job latency.
		samples[i] = 60 * math.Pow(1-rng.Float64(), -1/1.5)
	}
	checkQuantiles(t, "pareto", samples)
}

func TestTDigestAccuracyLognormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 200000)
	for i := range samples {
		samples[i] = math.Exp(5 + 1.2*rng.NormFloat64())
	}
	checkQuantiles(t, "lognormal", samples)
}

func TestTDigestEmptyAndSingle(t *testing.T) {
	td := NewTDigest(DefaultCompression)
	if !math.IsNaN(td.Quantile(0.5)) {
		t.Fatalf("empty digest quantile = %v, want NaN", td.Quantile(0.5))
	}
	td.Add(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := td.Quantile(q); got != 42 {
			t.Fatalf("single-sample digest q=%v = %v, want 42", q, got)
		}
	}
	td.Add(math.NaN())
	if got := td.Count(); got != 1 {
		t.Fatalf("NaN was counted: count %v", got)
	}
}

// TestMergeDeterministicAcrossShardOrders pins MergedInto's contract: its
// result is bitwise identical under any permutation of its parts.
func TestMergeDeterministicAcrossShardOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([]*TDigest, 4)
	for i := range parts {
		parts[i] = NewTDigest(DefaultCompression)
		n := 20000 + i*7777
		for k := 0; k < n; k++ {
			parts[i].Add(math.Exp(4 + float64(i)*0.3 + rng.NormFloat64()))
		}
	}
	perms := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}}
	var refM, refW []float64
	var refMin, refMax, refCount float64
	for pi, perm := range perms {
		dst := NewTDigest(DefaultCompression)
		ordered := make([]*TDigest, len(perm))
		for k, idx := range perm {
			ordered[k] = parts[idx]
		}
		MergedInto(dst, ordered...)
		if pi == 0 {
			refM = append([]float64(nil), dst.mean...)
			refW = append([]float64(nil), dst.weight...)
			refMin, refMax, refCount = dst.min, dst.max, dst.count
			continue
		}
		if len(dst.mean) != len(refM) {
			t.Fatalf("perm %v: %d centroids, want %d", perm, len(dst.mean), len(refM))
		}
		for i := range refM {
			if math.Float64bits(dst.mean[i]) != math.Float64bits(refM[i]) ||
				math.Float64bits(dst.weight[i]) != math.Float64bits(refW[i]) {
				t.Fatalf("perm %v: centroid %d = (%v, %v), want (%v, %v)",
					perm, i, dst.mean[i], dst.weight[i], refM[i], refW[i])
			}
		}
		if dst.min != refMin || dst.max != refMax || dst.count != refCount {
			t.Fatalf("perm %v: min/max/count %v/%v/%v, want %v/%v/%v",
				perm, dst.min, dst.max, dst.count, refMin, refMax, refCount)
		}
	}
}

// TestMergeAssociativityApproximate: pairwise re-merging ((a+b)+c) loses
// some resolution versus the one-shot merge, but the quantiles must agree
// within the documented tolerance.
func TestMergeAssociativityApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(n int, shift float64) *TDigest {
		td := NewTDigest(DefaultCompression)
		for k := 0; k < n; k++ {
			td.Add(shift + 1000*rng.Float64())
		}
		return td
	}
	a, b, c := mk(30000, 0), mk(40000, 200), mk(50000, 500)
	oneShot := NewTDigest(DefaultCompression)
	MergedInto(oneShot, a, b, c)
	ab := NewTDigest(DefaultCompression)
	MergedInto(ab, a, b)
	abc := NewTDigest(DefaultCompression)
	MergedInto(abc, ab, c)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		x, y := oneShot.Quantile(q), abc.Quantile(q)
		if rel := math.Abs(x-y) / math.Max(math.Abs(x), 1e-9); rel > 0.02 {
			t.Errorf("q=%v: one-shot %v vs pairwise %v (rel err %v > 2%%)", q, x, y, rel)
		}
	}
	if got, want := abc.Count(), oneShot.Count(); got != want {
		t.Errorf("pairwise count %v, want %v", got, want)
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

func TestTDigestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	td := NewTDigest(DefaultCompression)
	for k := 0; k < 50000; k++ {
		td.Add(rng.ExpFloat64() * 300)
	}
	var back TDigest
	back.Init(DefaultCompression)
	roundTrip(t, td, &back)
	if got, want := back.Count(), td.Count(); got != want {
		t.Fatalf("count %v, want %v", got, want)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if x, y := td.Quantile(q), back.Quantile(q); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("q=%v: restored %v, want bitwise %v", q, y, x)
		}
	}
	// The restored digest must remain usable: keep adding.
	back.Add(1)
	if got := back.Count(); got != td.Count()+1 {
		t.Fatalf("post-restore add: count %v", got)
	}
}

func TestSketchSetCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sk := NewSketchSet()
	for k := 0; k < 60000; k++ {
		lat := rng.ExpFloat64() * 500
		sk.Record(JobClassOf(60+rng.Float64()*7000), lat, lat*0.1)
	}
	back := NewSketchSet()
	roundTrip(t, sk, back)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if x, y := sk.Latency().Quantile(q), back.Latency().Quantile(q); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("merged q=%v: restored %v, want %v", q, y, x)
		}
		if x, y := sk.Wait().Quantile(q), back.Wait().Quantile(q); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("wait q=%v: restored %v, want %v", q, y, x)
		}
	}
	// A latency-digest count other than 1 must be rejected, not silently
	// mis-shaped.
	var enc checkpoint.Codec
	two := 2
	enc.Int(&two)
	dec := checkpoint.NewDec("t", enc.Payload())
	NewSketchSet().State(dec)
	if err := dec.End(); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("restore of a two-digest set: got %v, want ErrCorrupt", err)
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

// TestTDigestAddZeroAlloc pins the hot paths: Add (including its amortized
// flush: buffer sort + two-stream merge + compression, all in preallocated
// scratch), SketchSet.Record and a warm MergedInto allocate nothing. This pin
// runs under -race too (obs-smoke).
func TestTDigestAddZeroAlloc(t *testing.T) {
	td := NewTDigest(DefaultCompression)
	rng := rand.New(rand.NewSource(19))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 100
	}
	// Warm: fill past several flush cycles first.
	for i := 0; i < 8192; i++ {
		td.Add(vals[i%len(vals)])
	}
	i := 0
	if avg := testing.AllocsPerRun(20000, func() {
		td.Add(vals[i%len(vals)])
		i++
	}); avg != 0 {
		t.Fatalf("TDigest.Add allocates %v/op, want 0", avg)
	}
	sk := NewSketchSet()
	for k := 0; k < 4096; k++ {
		sk.Record(k%NumJobClasses, vals[k%len(vals)], vals[(k+7)%len(vals)])
	}
	k := 0
	if avg := testing.AllocsPerRun(20000, func() {
		sk.Record(k%NumJobClasses, vals[k%len(vals)], vals[(k+7)%len(vals)])
		k++
	}); avg != 0 {
		t.Fatalf("SketchSet.Record allocates %v/op, want 0", avg)
	}
	// A merge into a retained destination (the first call sizes its gather
	// arrays).
	parts := []*TDigest{td, &sk.latency, &sk.wait}
	dst := NewTDigest(DefaultCompression)
	MergedInto(dst, parts...)
	if avg := testing.AllocsPerRun(200, func() { MergedInto(dst, parts...) }); avg != 0 {
		t.Fatalf("warm MergedInto allocates %v/op, want 0", avg)
	}
}
