package telemetry

import (
	"math/rand"
	"testing"
)

// The telemetry benchmark set: the per-completion sketch insert, the
// one-pass digest merge, and one epoch-span record. Wall time is
// report-only; their zero allocs/op is asserted by TestTDigestAddZeroAlloc
// (Add, MergedInto) and TestEpochRingBeginNoAlloc.

func BenchmarkTDigestAdd(b *testing.B) {
	td := NewTDigest(DefaultCompression)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 8192)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		td.Add(vals[i&8191])
	}
}

func BenchmarkTDigestMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	parts := make([]*TDigest, 4)
	for i := range parts {
		parts[i] = NewTDigest(DefaultCompression)
		for k := 0; k < 100000; k++ {
			parts[i].Add(rng.ExpFloat64() * 100)
		}
		parts[i].flush()
	}
	dst := NewTDigest(DefaultCompression)
	MergedInto(dst, parts...) // pre-size the gather arrays
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergedInto(dst, parts...)
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
