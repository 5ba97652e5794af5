//go:build !race

package hierdrl_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// TestResealedWordsNeverPanicResult rewrites, one at a time, every 8-byte
// word of smallSnapshot's cluster and metrics sections — as 1 and as its
// original value + 1, each under a recomputed CRC — and drives every snapshot
// Restore accepts through Drain to its Result. Each case must end in an error
// wrapping one of the three sentinels or in a finished Result, never in a
// panic: a stored value that disagrees with the state it summarizes is
// rejected at Restore or never stored. The fault-clock and agent sections are
// left to FuzzRestoreResealed's Restore-and-step property.
func TestResealedWordsNeverPanicResult(t *testing.T) {
	good := smallSnapshot(t)
	cases, accepted := 0, 0
	var failures []string
	for _, name := range []string{"cluster", "metrics"} {
		sp := findSection(good, name)
		for off := 0; off+8 <= sp.n; off++ {
			orig := binary.LittleEndian.Uint64(good[sp.payload+off:])
			for _, word := range []uint64{1, orig + 1} {
				cases++
				data := resealWord(append([]byte(nil), good...), sp, off, word)
				ok, err := restoreAndFinish(data)
				switch {
				case err != nil && !wrapsSentinel(err):
					failures = append(failures, fmt.Sprintf("%s word at %d = %#x: error wraps no sentinel: %v", name, off, word, err))
				case err != nil:
				case ok:
					accepted++
				}
			}
		}
	}
	t.Logf("%d resealed words, %d finished with a Result", cases, accepted)
	for i, f := range failures {
		if i == 20 {
			t.Errorf("... and %d more", len(failures)-i)
			break
		}
		t.Error(f)
	}
}

// restoreAndFinish restores data and drains the session to its Result. ok
// reports a finished Result; a panic anywhere on the way comes back as an
// error that wraps no sentinel.
func restoreAndFinish(data []byte) (ok bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			ok, err = false, fmt.Errorf("panic: %v", p)
		}
	}()
	s, err := hierdrl.Restore(bytes.NewReader(data))
	if err != nil {
		return false, err
	}
	defer s.Close()
	if err := finishRun(s); err != nil {
		return false, err
	}
	return true, nil
}
