package telemetry

import (
	"math/rand"
	"testing"
)

// The telemetry benchmark set: the per-completion sketch insert and one
// epoch-span record. Wall time is report-only; their zero allocs/op is
// asserted by TestHistogramAddZeroAlloc and TestEpochRingBeginNoAlloc.

// BenchmarkTDigestAdd measures Histogram.Add. It keeps the name of the
// sketch it replaced because the repository benchmark runs it by that name
// (telemetry.tdigest_add.ns).
func BenchmarkTDigestAdd(b *testing.B) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 8192)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i&8191])
	}
}

func BenchmarkEpochSpanRecord(b *testing.B) {
	r := NewEpochRing(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := r.Begin(float64(i))
		r.Lap(&sp.RefreshNs)
		r.Lap(&sp.AllocNs)
		r.Lap(&sp.CommitNs)
	}
}
