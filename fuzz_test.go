package hierdrl_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hierdrl"
)

// agentSnapshot is a small mid-run snapshot of a DRL run whose replay ring
// has wrapped: most of its agent section is replay slots.
func agentSnapshot(t testing.TB) []byte {
	t.Helper()
	cfg := hierdrl.DRLOnly(6)
	cfg.Global.AEHidden, cfg.Global.SubQHidden, cfg.Global.ReplayCap = []int{8, 4}, 16, 64
	cfg.WarmupTrace = hierdrl.SyntheticTraceForCluster(40, 6, 1001)
	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(200, 6, 1)); err != nil {
		t.Fatal(err)
	}
	stepToCompleted(t, s, 100)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// FuzzRestoreState throws arbitrary bytes at the snapshot restore path. The
// seed corpus is one pristine mid-run snapshot from a fault-free run, every
// corruption class of snapshotCorruptions, two of the pinned golden snapshots
// (format v4) — a fault-enabled run (fault clocks, retry map) and a
// sketch-only fault run (metrics sketch extension) — and agentSnapshot, so the fuzzer starts from the exact byte
// layouts the rejection table and the format pin hold, one of them mostly
// replay memory, and mutates outward. The invariant: Restore either rejects
// the input with an error or returns a session that can actually be driven —
// it must never panic, hang on a length field, or accept bytes it cannot
// replay.
func FuzzRestoreState(f *testing.F) {
	good := smallSnapshot(f)
	f.Add(good)
	for _, tc := range snapshotCorruptions {
		f.Add(tc.mutate(append([]byte(nil), good...)))
	}
	for _, name := range []string{"faults_backoff_pr12.ckpt", "sketch_faults_p1_pr26.ckpt"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}
	f.Add(agentSnapshot(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := hierdrl.Restore(bytes.NewReader(data))
		if err != nil {
			return // rejection is the expected outcome for damaged input
		}
		defer s.Close()
		// An accepted snapshot must be drivable: advance a bounded number of
		// events without panicking (a short prefix is enough — full-run
		// equivalence belongs to TestCheckpointResumeBitwise).
		for i := 0; i < 200; i++ {
			more, err := s.Step()
			if err != nil || !more {
				return
			}
		}
	})
}
