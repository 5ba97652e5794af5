//go:build !race

package workload

import (
	"runtime"
	"testing"
)

// TestSourceNextAllocatesNothing pins the generator's per-job allocations at
// zero: it runs inside the measured loop of every streamed run. Each source's
// first Next, which allocates the pool when it starts a producer, is made
// before the count, under GOMAXPROCS 2 (read-ahead) and 1 (the generator on
// the caller). The race detector's instrumentation allocates, hence the
// build tag.
func TestSourceNextAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 1} {
		runtime.GOMAXPROCS(procs)
		src := MustSource(diurnalBursty(3*poolJobs), 1)
		src.Next()
		if got := testing.AllocsPerRun(2*poolJobs, func() { src.Next() }); got != 0 {
			t.Errorf("GOMAXPROCS=%d: Source.Next: %v allocs per job, want 0", procs, got)
		}
	}
}

// TestSourceHandOffsAllocateNothing pins the read-ahead's batch hand-offs at
// no allocation, which a per-job average rounds away: after a first pool is
// read (its first Next allocates the pool and starts the producer), 24 more
// pools, 384 hand-offs, may allocate a few times in the whole process (a
// channel wait may allocate a sudog), not once per batch (384) or per pool
// (24).
func TestSourceHandOffsAllocateNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	src := MustSource(diurnalBursty(25*poolJobs), 1)
	for i := 0; i < poolJobs; i++ {
		src.Next()
	}
	if src.full == nil {
		t.Fatal("GOMAXPROCS=2: no producer started")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ok := src.Next(); ok; _, ok = src.Next() {
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 16 {
		t.Errorf("24 pools of read-ahead: %d allocations, want at most 16", n)
	}
}
