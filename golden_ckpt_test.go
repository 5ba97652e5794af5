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

// goldenSnapshots pins snapshot format v8 byte for byte. Each file under
// testdata/ is the snapshot of exactly the run described here, and want holds
// the Summary bits the writing commit produced when it restored its own
// snapshot of that run and drained (faultBits: the base measurements plus the
// fault telemetry). The PR 13 files were first written in format v3 and
// re-recorded when v4 took each observation's second copy out of the agent
// section, and both P = 1 files again when v5 stopped storing the cluster's
// derived aggregates, when v6 stored replay states as deltas, and when v7
// moved the domain outage count into the cluster section and dropped the
// per-job waits; their want bits did not move until v8, whose PCG generator
// changed every simulated stream and so every run's bits, once.
// Together the files cover every section a snapshot can carry — DRL agent,
// replay memory, per-server LSTM + RL timeout, fault clocks and retry map,
// and the metrics sketch extension.
//
// The refused files are snapshots of earlier formats, and Restore must refuse
// them with ErrVersion, never panic: two v4 files the removed sharded tier
// (shard count 2) wrote, and the v7 snapshot of TestCheckpointAfterHeadSideInsert's
// fault run.
var goldenSnapshots = []struct {
	file    string
	refused bool
	pause   int64
	cfg     func() hierdrl.Config
	opts    []hierdrl.SessionOption
	jobs    int
	want    [17]uint64
}{
	{"hier30_p1_pr13.ckpt", false, 120, goldenHier30, nil, 200, goldenHier30Bits},
	{"hier30_p2_pr13.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
	// Written at the parent of the commit that removed the sharded tier, to
	// pin the sketch walk at P = 1. Its bits differ from the P = 2 file's: a
	// cross-shard timestamp tie in this fault run ordered differently there.
	{"sketch_faults_p1_pr26.ckpt", false, 750, func() hierdrl.Config { return expCrashCfg(8, hierdrl.RetryBackoff) },
		[]hierdrl.SessionOption{hierdrl.WithSketchOnly()}, 1500,
		[17]uint64{0x4024bcd5b9f4ba14, 0x4136be3b226e3606, 0x4086f1ee896e68a3, 0x408f0d493a9d4d2c, 0x40d84d4a75eaca0f, 0x40a6a8d8ebca530f, 0x40499ee061efd026, 0x40e8d2d0700a7af8, 0x3fef17771b791a06, 0x40812df6225df2d5, 0x40f1f5061e85b18d, 0x1500000015, 0x46, 0x4600000000}},
	{"sketch_faults_p2_pr13.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
	{"faults_backoff_v7.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
}

var goldenHier30Bits = [17]uint64{0x3ffe97336bcb38cc, 0x41076c135197e646, 0x408ea244dc19bec2, 0x408dfafa020a1c83, 0x40e0cdce9f168213, 0x40a5d27965730e25, 0x4019159d53aa3cd1, 0x40bb6d5395d28c2d, 0x3ff0000000000000}

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
// every refused file with ErrVersion.
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
			if g.refused {
				s, err := hierdrl.Restore(bytes.NewReader(old))
				if err == nil {
					s.Close()
					t.Fatal("snapshot of an earlier format accepted")
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
