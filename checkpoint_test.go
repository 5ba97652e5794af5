package hierdrl_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"hierdrl"
)

// warmTrace is the small DRL warmup workload shared by the checkpoint tests.
func warmTrace(m int) *hierdrl.Trace {
	return hierdrl.SyntheticTraceForCluster(150, m, 1001)
}

// expCrashCfg arms aggressive exponential faults on a least-loaded baseline.
func expCrashCfg(m int, retry hierdrl.RetryKind) hierdrl.Config {
	cfg := hierdrl.RoundRobin(m)
	cfg.Name = "ckpt-faults"
	cfg.Alloc = hierdrl.AllocLeastLoaded
	cfg.Faults = hierdrl.FaultExpCrash
	cfg.MTTFSec = 20000
	cfg.MTTRSec = 600
	cfg.Retry = retry
	return cfg
}

func drainResult(t *testing.T, s *hierdrl.Session) *hierdrl.Result {
	t.Helper()
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res, err := s.Result()
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return res
}

// stepToCompleted advances the session one Step at a time until at least n
// jobs completed, leaving it at a decision-epoch boundary mid-run.
func stepToCompleted(t testing.TB, s *hierdrl.Session, n int64) {
	t.Helper()
	for s.Completed() < n {
		ok, err := s.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if !ok {
			t.Fatalf("engine idle at %d completed, wanted to pause at %d", s.Completed(), n)
		}
	}
}

// stepUntilSnapshot keeps stepping until cond holds on a live snapshot, so a
// checkpoint can be taken in a specific fault state (mid-outage, mid-drain,
// mid-degrade). Fails if cond never holds before bound jobs complete — the
// mid-fault checkpoint would otherwise be vacuous.
func stepUntilSnapshot(t testing.TB, s *hierdrl.Session, bound int64, what string, cond func(hierdrl.SessionSnapshot) bool) {
	t.Helper()
	var snap hierdrl.SessionSnapshot
	for {
		s.SnapshotInto(&snap)
		if cond(snap) {
			return
		}
		if s.Completed() >= bound {
			t.Fatalf("no %s observed by %d completed; mid-fault checkpoint is vacuous", what, bound)
		}
		ok, err := s.Step()
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if !ok {
			t.Fatalf("engine idle at %d completed while waiting for %s", s.Completed(), what)
		}
	}
}

// TestCheckpointResumeBitwise is the tentpole acceptance test: for every
// subsystem mix, a run that is checkpointed mid-flight,
// abandoned, and restored from the snapshot must produce a final Result
// bitwise identical to the uninterrupted reference — and the act of writing
// the checkpoint must not perturb the original run either.
func TestCheckpointResumeBitwise(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() hierdrl.Config
		jobs int
		// shards goes to the deprecated WithShards, a no-op: the sharded-pN
		// rows pin that the option leaves the checkpoint contract unchanged.
		shards int
		// mid optionally keeps stepping past jobs/2 until the snapshot shows
		// a specific fault state, so the checkpoint lands mid-outage /
		// mid-degrade / mid-drain (midWhat names it in failures).
		mid     func(hierdrl.SessionSnapshot) bool
		midWhat string
	}{
		{"strict/drl-fixed-timeout", func() hierdrl.Config {
			cfg := hierdrl.FixedTimeoutBaseline(6, 45)
			cfg.WarmupTrace = warmTrace(6)
			cfg.CheckpointEvery = 40
			return cfg
		}, 240, 1, nil, ""},
		{"strict/hierarchical-lstm", func() hierdrl.Config {
			cfg := hierdrl.Hierarchical(6)
			cfg.WarmupTrace = warmTrace(6)
			return cfg
		}, 220, 1, nil, ""},
		{"strict/faults-backoff", func() hierdrl.Config {
			cfg := expCrashCfg(6, hierdrl.RetryBackoff)
			cfg.CheckpointEvery = 250
			return cfg
		}, 2000, 1, nil, ""},
		{"sharded-p2/least-loaded", func() hierdrl.Config {
			cfg := hierdrl.RoundRobin(8)
			cfg.Alloc = hierdrl.AllocLeastLoaded
			cfg.CheckpointEvery = 250
			return cfg
		}, 2000, 2, nil, ""},
		{"sharded-p4/drl-adhoc", func() hierdrl.Config {
			cfg := hierdrl.DRLOnly(8)
			cfg.WarmupTrace = warmTrace(8)
			return cfg
		}, 240, 4, nil, ""},
		{"sharded-p2/faults-immediate", func() hierdrl.Config {
			cfg := expCrashCfg(8, hierdrl.RetryImmediate)
			return cfg
		}, 2000, 2, nil, ""},
		{"strict/faults-correlated-midoutage", func() hierdrl.Config {
			cfg := expCrashCfg(8, hierdrl.RetryBackoff)
			cfg.Name = "ckpt-correlated"
			cfg.Faults = hierdrl.FaultCorrelatedCrash
			cfg.Domains = hierdrl.EqualDomains(4, 8)
			return cfg
		}, 2000, 1, func(sn hierdrl.SessionSnapshot) bool {
			return sn.ServersDown > 0 // a whole rack is down right now
		}, "rack outage"},
		{"sharded-p2/faults-degrade-middegrade", func() hierdrl.Config {
			cfg := expCrashCfg(8, hierdrl.RetryImmediate)
			cfg.Name = "ckpt-degrade"
			cfg.Faults = hierdrl.FaultDegrade
			cfg.DegradeFactor = 0.25
			cfg.MTTFSec = 8000
			cfg.MTTRSec = 2000
			return cfg
		}, 2000, 2, func(sn hierdrl.SessionSnapshot) bool {
			for _, sp := range sn.View.Speed {
				if sp < 1 { // a server is running fail-slow right now
					return true
				}
			}
			return false
		}, "degraded server"},
		{"sharded-p2/faults-drain-middrain", func() hierdrl.Config {
			cfg := expCrashCfg(8, hierdrl.RetryImmediate)
			cfg.Name = "ckpt-drain"
			cfg.Alloc = hierdrl.AllocPackFit
			cfg.Faults = hierdrl.FaultDrain
			cfg.DrainEverySec = 6000
			cfg.DrainWindowSec = 400
			return cfg
		}, 2000, 2, func(sn hierdrl.SessionSnapshot) bool {
			return sn.ServersUnavailable > 0 // a server is draining or powered off
		}, "maintenance window"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			tr := hierdrl.SyntheticTraceForCluster(tc.jobs, cfg.M, 1)

			// Reference: the identical run, never checkpointed.
			ref, err := hierdrl.NewSession(cfg, hierdrl.WithShards(tc.shards))
			if err != nil {
				t.Fatalf("reference session: %v", err)
			}
			defer ref.Close()
			if err := ref.SubmitTrace(tr); err != nil {
				t.Fatal(err)
			}
			refRes := drainResult(t, ref)

			// Original: pause mid-run, snapshot, then keep going.
			orig, err := hierdrl.NewSession(cfg, hierdrl.WithShards(tc.shards))
			if err != nil {
				t.Fatalf("original session: %v", err)
			}
			defer orig.Close()
			if err := orig.SubmitTrace(tr); err != nil {
				t.Fatal(err)
			}
			stepToCompleted(t, orig, int64(tc.jobs/2))
			if tc.mid != nil {
				stepUntilSnapshot(t, orig, int64(tc.jobs)*9/10, tc.midWhat, tc.mid)
			}
			var snap bytes.Buffer
			if err := orig.Checkpoint(&snap); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			origRes := drainResult(t, orig)
			if !reflect.DeepEqual(refRes, origRes) {
				t.Fatalf("writing a checkpoint perturbed the run:\nref:  %+v\norig: %+v",
					refRes.Summary, origRes.Summary)
			}

			// Restored: rebuild from the snapshot alone and finish the run.
			restored, err := hierdrl.Restore(bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			defer restored.Close()
			resRes := drainResult(t, restored)
			if !reflect.DeepEqual(refRes, resRes) {
				t.Fatalf("resumed run diverges from uninterrupted reference:\nref:     %+v\nresumed: %+v",
					refRes.Summary, resRes.Summary)
			}
			if len(resRes.Checkpoints) != len(refRes.Checkpoints) {
				t.Fatalf("checkpoint series %d vs %d entries",
					len(resRes.Checkpoints), len(refRes.Checkpoints))
			}
		})
	}
}

// smallSnapshot builds one valid mid-run snapshot for the corruption tests,
// with a three-point checkpoint series.
func smallSnapshot(t testing.TB) []byte {
	t.Helper()
	cfg := hierdrl.RoundRobin(4)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	cfg.CheckpointEvery = 50
	tr := hierdrl.SyntheticTraceForCluster(300, 4, 1)
	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	stepToCompleted(t, s, 150)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// localSnapshot builds one valid mid-run snapshot of the RL + LSTM local
// tier (three servers, round-robin, every predictor trained) for the
// corruption tests.
func localSnapshot(t testing.TB) []byte {
	t.Helper()
	cfg := hierdrl.RoundRobin(3)
	cfg.DPM = hierdrl.DPMRL
	cfg.LocalRL = hierdrl.Hierarchical(3).LocalRL
	cfg.Predictor = hierdrl.PredictorLSTM
	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(300, 3, 1)); err != nil {
		t.Fatal(err)
	}
	stepToCompleted(t, s, 150)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// snapshotCorruption is one corruption class: a mutation of a valid
// snapshot and the sentinel its restore must surface.
type snapshotCorruption struct {
	name   string
	mutate func(b []byte) []byte
	want   error
}

// localTierCorruptions mutate localSnapshot (clock 15415.9 s) under a
// recomputed CRC. The local-tier rows rewrite an instant to 1e15 s, after the
// lane clock; the run used to restore and then panic on that server's next
// event.
var localTierCorruptions = []snapshotCorruption{
	// The round-robin cursor (after the alloc section's presence flag and the
	// component's stateful flag) set to -1: the next dispatch used to hand
	// the cluster server -1 and panic.
	{"round-robin-negative-cursor", func(b []byte) []byte {
		return resealWord(b, findSection(b, "alloc"), 2, ^uint64(0))
	}, hierdrl.ErrCorrupt},
	// Server 0's LSTM predictor's last arrival (after its weights, Adam
	// moments and RNG): its next arrival was "out of order".
	{"predictor-arrival-after-clock", func(b []byte) []byte {
		return resealWord(b, findSection(b, "cluster"), 95402, math.Float64bits(1e15))
	}, hierdrl.ErrCorrupt},
	// Server 0's RL timeout's reward integrator (the one open sojourn at the
	// pause; after the timeout's 7 x 6 Q-table and visit counts, its epsilon
	// schedule and RNG), its last integration point advanced to 1e15: its
	// next observation sent "time backwards".
	{"sojourn-instant-after-clock", func(b []byte) []byte {
		return resealWord(b, findSection(b, "cluster"), 2048, math.Float64bits(1e15))
	}, hierdrl.ErrCorrupt},
	// That timeout's pending decision (state 5, action 0; after the
	// integrator, the last power and queue length and the pending flag), its
	// action set to 99 of 6: the run restored and its next idle epoch panicked
	// indexing the Q-table.
	{"rl-pending-action-out-of-range", func(b []byte) []byte {
		return resealWord(b, findSection(b, "cluster"), 2097, 99)
	}, hierdrl.ErrCorrupt},
	// Its pending state set to 7, one past the table's 7 categories.
	{"rl-pending-state-out-of-range", func(b []byte) []byte {
		return resealWord(b, findSection(b, "cluster"), 2089, 7)
	}, hierdrl.ErrCorrupt},
	// The integrator's started flag (the top byte of the word before its
	// sojourn start) cleared under that pending decision: the next idle epoch
	// closed a sojourn that was never opened and panicked. Found by
	// FuzzRestoreResealed (corpus entry 61d47b182b08361b).
	{"rl-pending-without-sojourn", func(b []byte) []byte {
		sp := findSection(b, "cluster")
		return resealWord(b, sp, 2032, binary.LittleEndian.Uint64(b[sp.payload+2032:])&^(0xff<<56))
	}, hierdrl.ErrCorrupt},
}

// snapshotCorruptions is the corruption-class table, over smallSnapshot,
// shared by the rejection test and FuzzRestoreState's seed corpus. Container
// layout (internal/checkpoint): magic [0,8), version u32 [8,12), fingerprint
// u64 [12,20), nSections u32 [20,24), then the section table — first entry
// nameLen u16 [24,26), name "config" [26,32), payloadLen u64 [32,40).
var snapshotCorruptions = []snapshotCorruption{
	{"empty-file", func(b []byte) []byte { return nil }, hierdrl.ErrCorrupt},
	{"truncated-header", func(b []byte) []byte { return b[:10] }, hierdrl.ErrCorrupt},
	{"bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, hierdrl.ErrCorrupt},
	{"unsupported-version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], 99)
		return b
	}, hierdrl.ErrVersion},
	// Format v12 (the agent section stores the autoencoder samples) is not
	// read by a v13 reader; nor is any earlier version (the
	// previous-version-vN rows, appended below).
	{"previous-version", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], 12)
		return b
	}, hierdrl.ErrVersion},
	{"fingerprint-flip", func(b []byte) []byte { b[12] ^= 0xFF; return b }, hierdrl.ErrConfigMismatch},
	{"implausible-section-count", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[20:], 100000)
		return b
	}, hierdrl.ErrCorrupt},
	{"section-table-dropped", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[20:], 0)
		return b
	}, hierdrl.ErrCorrupt},
	{"section-name-tampered", func(b []byte) []byte { b[26] ^= 0x20; return b }, hierdrl.ErrCorrupt},
	{"section-length-huge", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[32:], 1<<40)
		return b
	}, hierdrl.ErrCorrupt},
	// 100 bytes whose first table entry claims a section just under the
	// 1 GiB cap: must be rejected without sizing anything by the claim.
	{"section-length-overclaims-input", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[32:], 1<<30-1)
		return b[:100]
	}, hierdrl.ErrCorrupt},
	{"payload-truncated", func(b []byte) []byte { return b[:len(b)-5] }, hierdrl.ErrCorrupt},
	{"payload-bit-flip-tail", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, hierdrl.ErrCorrupt},
	{"payload-bit-flip-mid", func(b []byte) []byte { b[len(b)*3/4] ^= 0x01; return b }, hierdrl.ErrCorrupt},
	// CRC-valid: the session section's queued-job count (after ingested and
	// finished) times its 48-byte lower bound wraps to 16, which a bound
	// check by multiplication passed.
	{"section-count-overflows", func(b []byte) []byte {
		return resealWord(b, findSection(b, "session"), 9, 384307168202282326)
	}, hierdrl.ErrCorrupt},
	// CRC-valid: the first job-table record (after the count) belongs to an
	// executing job; the word over its started and finished flags clears
	// both, and the job used to complete unstarted and panic the run.
	{"executing-job-unstarted", func(b []byte) []byte {
		return resealWord(b, findSection(b, "cluster"), 80, 1<<61)
	}, hierdrl.ErrCorrupt},
	// CRC-valid: that job's CPU demand raised to a whole server, more than
	// its server holds; its completion used to drive the utilization
	// negative and panic the run.
	{"executing-demand-exceeds-utilization", func(b []byte) []byte {
		return resealWord(b, findSection(b, "cluster"), 32, math.Float64bits(1))
	}, hierdrl.ErrCorrupt},
	// CRC-valid: the first undispatched arrival (after ingested, finished
	// and the count; then its ID, arrival and duration) asks for two whole
	// servers of CPU; dispatching it used to panic the cluster.
	{"queued-demand-over-capacity", func(b []byte) []byte {
		return resealWord(b, findSection(b, "session"), 41, math.Float64bits(2))
	}, hierdrl.ErrCorrupt},
	// CRC-valid: server 0's draining flag (after the 16-record job table, the
	// faults flag, and the server's power state, utilization, pending demand
	// and degrade bookkeeping) set on a fault-free cluster; its next job
	// completion used to power it off for maintenance with no fault clock to
	// draw the repair from, and panic.
	{"draining-without-drain-model", func(b []byte) []byte {
		return resealWord(b, findSection(b, "cluster"), 1266, 1)
	}, hierdrl.ErrCorrupt},
	// CRC-valid: the short class's latency histogram's minimum (after the
	// metrics section's latency sum, the series count, the three 24-byte
	// series points and the wait sum) raised above its maximum and out of its
	// first nonzero bucket; the summary percentiles are clamped to [min, max]
	// and would read it.
	{"latency-min-above-max", func(b []byte) []byte {
		return resealWord(b, findSection(b, "metrics"), 96, math.Float64bits(1e15))
	}, hierdrl.ErrCorrupt},
	// CRC-valid: the short class's first bucket count (after its min, max,
	// nonzero-bucket count and that bucket's 4-byte index) one higher, so the
	// histograms hold one latency more than the cluster completed.
	{"class-count-off-completions", func(b []byte) []byte {
		sp := findSection(b, "metrics")
		return resealWord(b, sp, 124, binary.LittleEndian.Uint64(b[sp.payload+124:])+1)
	}, hierdrl.ErrCorrupt},
	// CRC-valid: the series' last point cut out and its count lowered, so
	// two points stand for 150 completions at one every 50.
	{"series-point-dropped", func(b []byte) []byte {
		sp := findSection(b, "metrics")
		b = cutSection(b, sp, 16+2*24, 24)
		return resealWord(b, findSection(b, "metrics"), 8, 2)
	}, hierdrl.ErrCorrupt},
}

func init() {
	for v := 1; v < 12; v++ {
		snapshotCorruptions = append(snapshotCorruptions, snapshotCorruption{fmt.Sprintf("previous-version-v%d", v), func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], uint32(v))
			return b
		}, hierdrl.ErrVersion})
	}
}

// cutSection removes n bytes at off from one section's payload and rewrites
// the section's length; the caller reseals its CRC.
func cutSection(snap []byte, sp sectionSpan, off, n int) []byte {
	binary.LittleEndian.PutUint64(snap[sp.entry:], uint64(sp.n-n))
	return append(snap[:sp.payload+off], snap[sp.payload+off+n:]...)
}

// TestRestoreRejectsCorruptSnapshots mutates a valid snapshot one corruption
// class at a time and pins the sentinel each class must surface.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	for _, set := range []struct {
		good  []byte
		cases []snapshotCorruption
	}{{smallSnapshot(t), snapshotCorruptions}, {localSnapshot(t), localTierCorruptions}} {
		if s, err := hierdrl.Restore(bytes.NewReader(set.good)); err != nil {
			t.Fatalf("pristine snapshot rejected: %v", err)
		} else {
			s.Close()
		}
		for _, tc := range set.cases {
			testRejectsCorruption(t, set.good, tc)
		}
	}
}

// TestRoundRobinCursorPastMResumes: a round-robin cursor at or past M is
// reduced at the next dispatch, so one at math.MaxInt restores and drains to
// a Result (the increment used to overflow one dispatch later and panic).
func TestRoundRobinCursorPastMResumes(t *testing.T) {
	good := localSnapshot(t)
	mutant := resealWord(append([]byte(nil), good...), findSection(good, "alloc"), 2, math.MaxInt)
	s, err := hierdrl.Restore(bytes.NewReader(mutant))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer s.Close()
	drainResult(t, s)
}

func testRejectsCorruption(t *testing.T, good []byte, tc snapshotCorruption) {
	t.Run(tc.name, func(t *testing.T) {
		mutant := tc.mutate(append([]byte(nil), good...))
		s, err := hierdrl.Restore(bytes.NewReader(mutant))
		if err == nil {
			s.Close()
			t.Fatal("corrupt snapshot accepted")
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("got %v, want errors.Is(err, %v)", err, tc.want)
		}
		// The same bytes through a reader that cannot say how much is
		// left (a file, a pipe): same sentinel, and — whatever lengths the
		// header claims — memory in proportion to the input, not to them.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err = hierdrl.Restore(struct{ io.Reader }{bytes.NewReader(mutant)})
		runtime.ReadMemStats(&after)
		if err == nil {
			s.Close()
			t.Fatal("corrupt snapshot accepted from an opaque reader")
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("opaque reader: got %v, want errors.Is(err, %v)", err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
			t.Fatalf("rejecting %d corrupt bytes allocated %d bytes", len(mutant), grew)
		}
	})
}

// TestSessionCloseIdempotentAndCheckpointClosed pins the small-fix satellite:
// repeated Close stays a nil no-op, and Checkpoint on a closed session
// surfaces ErrSessionClosed instead of serializing torn-down state.
func TestSessionCloseIdempotentAndCheckpointClosed(t *testing.T) {
	cfg := hierdrl.RoundRobin(4)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(50, 4, 1)); err != nil {
		t.Fatal(err)
	}
	drainResult(t, s)
	for i := 0; i < 3; i++ {
		if err := s.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if err := s.Checkpoint(io.Discard); !errors.Is(err, hierdrl.ErrSessionClosed) {
		t.Fatalf("Checkpoint after Close: got %v, want ErrSessionClosed", err)
	}
}

// TestCheckpointAfterErrorReturnsLatched: once a run fails terminally
// (context cancellation here), Checkpoint must refuse with the latched error
// and write nothing — a partial failed run is not a resumable state.
func TestCheckpointAfterErrorReturnsLatched(t *testing.T) {
	cfg := hierdrl.RoundRobin(4)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	ctx, cancel := context.WithCancel(context.Background())
	s, err := hierdrl.NewSession(cfg, hierdrl.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(200, 4, 1)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := s.Drain(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain after cancel: got %v, want context.Canceled", err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("Checkpoint after latched error: got %v, want wrapped context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("Checkpoint wrote %d bytes despite refusing", buf.Len())
	}
}

// TestAutoCheckpointRotationAndResume: WithAutoCheckpoint writes rotated
// generations (path, path.1, path.2) without perturbing the run, never
// leaves its staging file behind, and the newest snapshot resumes to the
// bitwise-identical final Result.
func TestAutoCheckpointRotationAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	cfg := hierdrl.RoundRobin(6)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	cfg.CheckpointEvery = 200
	tr := hierdrl.SyntheticTraceForCluster(1200, 6, 1)

	ref, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	refRes := drainResult(t, ref)

	s, err := hierdrl.NewSession(cfg, hierdrl.WithAutoCheckpoint(path, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	autoRes := drainResult(t, s)
	if !reflect.DeepEqual(refRes, autoRes) {
		t.Fatalf("auto-checkpointing perturbed the run:\nref:  %+v\nauto: %+v",
			refRes.Summary, autoRes.Summary)
	}

	for _, f := range []string{path, path + ".1", path + ".2"} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("rotated snapshot %s missing: %v", f, err)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("staging file survived: %v", err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := hierdrl.Restore(f)
	f.Close()
	if err != nil {
		t.Fatalf("restore newest auto snapshot: %v", err)
	}
	defer restored.Close()
	resRes := drainResult(t, restored)
	if !reflect.DeepEqual(refRes, resRes) {
		t.Fatalf("resume from auto snapshot diverges:\nref:     %+v\nresumed: %+v",
			refRes.Summary, resRes.Summary)
	}

	// The cadence is per completed job, not per clock-advance call: one
	// StepUntil spanning more than 2N completions rotates at least twice
	// (RunSource advances in exactly such long calls).
	span := filepath.Join(dir, "span.ckpt")
	long, err := hierdrl.NewSession(cfg, hierdrl.WithAutoCheckpoint(span, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer long.Close()
	if err := long.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}
	if err := long.StepUntil(hierdrl.Time(tr.Jobs[len(tr.Jobs)-1].Arrival)); err != nil {
		t.Fatal(err)
	}
	if long.Completed() <= 200 {
		t.Fatalf("only %d completions inside the call; the case is vacuous", long.Completed())
	}
	for _, f := range []string{span, span + ".1"} {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("one StepUntil over %d completions left no %s: %v", long.Completed(), filepath.Base(f), err)
		}
	}
}

// TestAutoCheckpointFlushesOnCancel: a cancelled run with auto-checkpointing
// writes one final generation at the event boundary where it stops — not
// only the last periodic one — and that generation resumes to the
// uninterrupted Summary. When the final write fails, Drain's error carries
// both the cancellation and the write error.
func TestAutoCheckpointFlushesOnCancel(t *testing.T) {
	cfg := hierdrl.RoundRobin(6)
	cfg.Alloc = hierdrl.AllocLeastLoaded
	tr := hierdrl.SyntheticTraceForCluster(1200, 6, 1)
	ref, err := hierdrl.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	// drain runs a session that snapshots to path every 200 completions and,
	// at the 537th, calls atCancel and cancels its own context.
	drain := func(path string, atCancel func()) error {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := 0
		s, err := hierdrl.NewSession(cfg, hierdrl.WithContext(ctx), hierdrl.WithAutoCheckpoint(path, 200),
			hierdrl.WithObserver(hierdrl.Observer{OnJobDone: func(hierdrl.Time, *hierdrl.ClusterJob) {
				if done++; done == 537 {
					atCancel()
					cancel()
				}
			}}))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatal(err)
		}
		return s.Drain()
	}

	t.Run("final-generation", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := drain(path, func() {}); !errors.Is(err, context.Canceled) {
			t.Fatalf("Drain: got %v, want context.Canceled", err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := hierdrl.Restore(f)
		f.Close()
		if err != nil {
			t.Fatalf("restore final generation: %v", err)
		}
		defer s.Close()
		if got := s.Completed(); got != 537 {
			t.Fatalf("final generation holds %d completions, want 537", got)
		}
		if res := drainResult(t, s); !reflect.DeepEqual(ref.Summary, res.Summary) {
			t.Fatalf("resume from the final generation diverges:\nref:     %+v\nresumed: %+v",
				ref.Summary, res.Summary)
		}
	})

	t.Run("write-fails", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		err := drain(filepath.Join(dir, "run.ckpt"), func() {
			if err := os.RemoveAll(dir); err != nil {
				t.Error(err)
			}
		})
		if !errors.Is(err, context.Canceled) || !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Drain: got %v, want both context.Canceled and the failed write", err)
		}
	})
}
