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

// goldenSnapshots pins snapshot format v11 byte for byte. Each file under
// testdata/ is the snapshot of exactly the run described here, and want holds
// the Summary bits the writing commit produced when it restored its own
// snapshot of that run and drained (faultBits: the base measurements plus the
// fault telemetry). The PR 13 files were first written in format v3 and
// re-recorded when v4 took each observation's second copy out of the agent
// section, and both P = 1 files again when v5 stopped storing the cluster's
// derived aggregates, when v6 stored replay states as deltas, and when v7
// moved the domain outage count into the cluster section and dropped the
// per-job waits; their want bits did not move until v8, whose PCG generator
// changed every simulated stream and so every run's bits. All three live
// files were re-recorded, still v8, when the paper workload moved onto
// internal/workload's generator and its streams changed. Format v9 stores the
// metrics sketches as log-bucket histograms: the two sketch-free files
// changed in the version word alone and kept their want bits, and the sketch
// file was re-recorded, its metrics section and its want's one
// sketch-answered word (P95) changing with it. Format v10 makes the
// histograms every run's only latency record: every live file changed in the
// version word and the metrics section alone, and the one want word that
// moved is hier30's P95, now the histogram's (2288 s, 0.35 % above the exact
// 2279.92 s). The sketch file's run no longer asks for sketches; its bytes
// outside the metrics section and its want bits are unchanged. Format v11
// stores the metrics section's facts once (no overall latency histogram, no
// series job counts): every live file changed in the version word and the
// metrics section alone, which shrank, and no want word moved.
// Together the files cover every section a snapshot can carry — DRL agent,
// replay memory, per-server LSTM + RL timeout, fault clocks and retry map,
// and the metrics histograms.
//
// The refused files are snapshots of earlier formats, and Restore must refuse
// them with ErrVersion, never panic: two v4 files the removed sharded tier
// (shard count 2) wrote, the v7 snapshot of TestCheckpointAfterHeadSideInsert's
// fault run, the v8 snapshot of the sketch run, whose metrics section holds
// t-digests, and its v9 snapshot, whose metrics section holds the sketch
// flags and 8-byte bucket indices. There is no refused v10 file: every refused
// file stops at the reader's one header comparison of the version word, which
// TestRestoreRejectsCorruptSnapshots's previous-version rows run for every
// earlier version, 1 to 10.
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
		nil, 1500,
		[17]uint64{0x4023b0680c8ec369, 0x41376112890e37b1, 0x4088c3808299cddc, 0x408feb9e6d4d7038, 0x40d712b9eeb74cff, 0x40a8200000000000, 0x40473bd5bb580548, 0x40e5d666a2e575fb, 0x3fef0cf44afa9563, 0x407902eff1ce4794, 0x40f02c38327e8b87, 0x1400000012, 0x4b, 0x4b00000000}},
	{"sketch_faults_p2_pr13.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
	{"faults_backoff_v7.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
	{"sketch_faults_v8.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
	{"sketch_faults_v9.ckpt", true, 0, nil, nil, 0, [17]uint64{}},
}

var goldenHier30Bits = [17]uint64{0x3ff794b64d829a3d, 0x41067aab95cca915, 0x40829cda2772b853, 0x408cc5fa5957e2aa, 0x40d9e82148a7bbf3, 0x40a1e00000000000, 0x4010f0065851f4cc, 0x40c16608d6a3ed6b, 0x3ff0000000000000}

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
