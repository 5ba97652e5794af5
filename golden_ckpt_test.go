package hierdrl_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"hierdrl"
)

// goldenSnapshots pins snapshot format v5 byte for byte. Each file under
// testdata/ is the snapshot of exactly the run described here, and want holds
// the Summary bits the writing commit produced when it restored its own
// snapshot of that run and drained (faultBits: the base measurements plus the
// fault telemetry). The PR 13 files were first written in format v3 and
// re-recorded when v4 took each observation's second copy out of the agent
// section, and both P = 1 files again when v5 stopped storing the cluster's
// derived aggregates; their want bits never moved.
// Together the files cover every section a snapshot can carry — DRL agent,
// replay memory, per-server LSTM + RL timeout, fault clocks and retry map,
// and the metrics sketch extension.
//
// The removedTier files are format v4 snapshots the sharded tier (shard
// count 2) wrote. That tier is gone and so is v4: Restore must refuse them
// with ErrVersion, never panic.
var goldenSnapshots = []struct {
	file        string
	removedTier bool
	pause       int64
	cfg         func() hierdrl.Config
	opts        []hierdrl.SessionOption
	jobs        int
	want        [17]uint64
}{
	{"hier30_p1_pr13.ckpt", false, 120, goldenHier30, nil, 200, goldenHier30Bits},
	{"hier30_p2_pr13.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
	// Written at the parent of the commit that removed the sharded tier, to
	// pin the sketch walk at P = 1. Its bits differ from the P = 2 file's: a
	// cross-shard timestamp tie in this fault run ordered differently there.
	{"sketch_faults_p1_pr26.ckpt", false, 750, func() hierdrl.Config { return expCrashCfg(8, hierdrl.RetryBackoff) },
		[]hierdrl.SessionOption{hierdrl.WithSketchOnly()}, 1500,
		[17]uint64{0x4022e57eb716af9f, 0x4137be87506c145e, 0x4089a43b26cafc3e, 0x4090359bdcca1fa7, 0x40d624f07e8e95cf, 0x40a869dcd86642b2, 0x403b323984b2394d, 0x40e43da9dc12e364, 0x3fef9e6fbf7ed529, 0x407670c92773fe9c, 0x40e2ed9b99ddef40, 0xb0000000b, 0x2a, 0x2a00000000}},
	{"sketch_faults_p2_pr13.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
}

var goldenHier30Bits = [17]uint64{0x3ff7b94740b152b5, 0x4107b2cdebd679d4, 0x4084697b7d470eb0, 0x408e5582758d68bd, 0x40da104d87d2d01d, 0x40a4f305576b3a5a, 0x401220a9d14f92a1, 0x40bfec04b7279fbd, 0x3ff0000000000000}

func goldenHier30() hierdrl.Config {
	cfg := hierdrl.Hierarchical(30)
	cfg.WarmupTrace = hierdrl.SyntheticTrace(40, 1001)
	return cfg
}

// goldenRun replays case i up to its pause point and returns the paused
// session with its snapshot.
func goldenRun(t testing.TB, i int) (*hierdrl.Session, []byte) {
	t.Helper()
	g := goldenSnapshots[i]
	cfg := g.cfg()
	s, err := hierdrl.NewSession(cfg, g.opts...)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(g.jobs, cfg.M, 1)); err != nil {
		t.Fatal(err)
	}
	stepToCompleted(t, s, g.pause)
	var snap bytes.Buffer
	if err := s.Checkpoint(&snap); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return s, snap.Bytes()
}

// TestGoldenSnapshotsByteIdentical: today's code must re-emit every pinned
// snapshot byte for byte at the same Step, restore the pinned file, and finish
// the run with the bits the writing commit finished it with — and refuse
// every removed-tier file with ErrVersion.
func TestGoldenSnapshotsByteIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("snapshots recorded on amd64; see goldenM6")
	}
	for i, g := range goldenSnapshots {
		t.Run(g.file, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			if g.removedTier {
				s, err := hierdrl.Restore(bytes.NewReader(old))
				if err == nil {
					s.Close()
					t.Fatal("snapshot of the removed sharded tier accepted")
				}
				if !errors.Is(err, hierdrl.ErrVersion) {
					t.Fatalf("got %v, want ErrVersion", err)
				}
				return
			}
			s, snap := goldenRun(t, i)
			defer s.Close()
			if !bytes.Equal(snap, old) {
				t.Errorf("snapshot differs from the pinned one (%d vs %d bytes)", len(snap), len(old))
			}
			restored, err := hierdrl.Restore(bytes.NewReader(old))
			if err != nil {
				t.Fatalf("restore of the pinned snapshot: %v", err)
			}
			defer restored.Close()
			if got := faultBits(drainResult(t, restored).Summary); got != g.want {
				t.Errorf("pinned snapshot finished with %#x, at its own commit with %#x", got, g.want)
			}
		})
	}
}
