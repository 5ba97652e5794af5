package hierdrl_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hierdrl"
)

// FuzzRestoreState throws arbitrary bytes at the snapshot restore path. The
// seed corpus is one pristine mid-run snapshot from a fault-free run, every
// corruption class of snapshotCorruptions, and two of the pinned golden
// snapshots — a fault-enabled strict run (fault clocks, retry map) and a
// sketch-only fault run at P=2 (metrics v3 extension, merger-less sharded
// engine tail) — so the fuzzer starts from the exact byte layouts the
// rejection table and the format pin hold and mutates outward. The
// invariant: Restore either rejects the input with an error or returns a
// session that can actually be driven — it must never panic, hang on a
// length field, or accept bytes it cannot replay.
func FuzzRestoreState(f *testing.F) {
	good := smallSnapshot(f)
	f.Add(good)
	for _, tc := range snapshotCorruptions {
		f.Add(tc.mutate(append([]byte(nil), good...)))
	}
	for _, name := range []string{"faults_backoff_pr12.ckpt", "sketch_faults_p2_pr13.ckpt"} {
		golden, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
	}

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
