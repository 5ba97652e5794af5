//go:build !race

package workload

import "testing"

// TestSourceNextAllocatesNothing pins the generator's per-job allocations at
// zero: it runs inside the measured loop of every streamed run. The race
// detector's instrumentation allocates, hence the build tag.
func TestSourceNextAllocatesNothing(t *testing.T) {
	src := MustSource(diurnalBursty(1000), 1)
	if got := testing.AllocsPerRun(500, func() { src.Next() }); got != 0 {
		t.Errorf("Source.Next: %v allocs per job, want 0", got)
	}
}
