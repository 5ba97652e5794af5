//go:build !race

package hierdrl_test

import (
	"bytes"
	"testing"

	"hierdrl"
)

// TestRestoreAllocsFlatInReplayFill pins what Restore allocates for the DRL
// agent's replay memory: one slab for all the slots, not one block per slot.
// Two snapshots of the same run, one with about ten times the filled slots of
// the other, must restore in nearly the same number of allocations.
func TestRestoreAllocsFlatInReplayFill(t *testing.T) {
	cfg := hierdrl.DRLOnly(6)
	cfg.Global.AEHidden, cfg.Global.SubQHidden, cfg.Global.ReplayCap = []int{8, 4}, 16, 4096
	cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(40, 6, 1001)
	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(2400, 6, 1)); err != nil {
		t.Fatal(err)
	}
	restoreAllocs := func(completed int64) float64 {
		stepToCompleted(t, s, completed)
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		return testing.AllocsPerRun(5, func() {
			r, err := hierdrl.Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			r.Close()
		})
	}
	few, many := restoreAllocs(200), restoreAllocs(2000)
	t.Logf("Restore allocs: %.0f at ~200 filled slots, %.0f at ~2,000", few, many)
	if d := many - few; d >= 64 || d <= -64 {
		t.Fatalf("Restore allocs move with the replay fill: %.0f at ~200 slots, %.0f at ~2,000", few, many)
	}
}
