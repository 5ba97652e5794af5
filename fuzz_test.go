package hierdrl_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// corruption class of snapshotCorruptions and localTierCorruptions, two of the pinned golden snapshots
// (format v13) — a fault-enabled run (fault clocks, retry map) and a
// backoff fault run (longer metrics histograms) — and agentSnapshot, so the fuzzer starts from the exact byte
// layouts the rejection table and the format pin hold, one of them mostly
// replay memory, and mutates outward. The invariant: Restore either rejects
// the input with an error or returns a session that can actually be driven —
// it must never panic, hang on a length field, or accept bytes it cannot
// replay.
func FuzzRestoreState(f *testing.F) {
	good, local := smallSnapshot(f), localSnapshot(f)
	f.Add(good)
	for _, tc := range snapshotCorruptions {
		f.Add(tc.mutate(append([]byte(nil), good...)))
	}
	for _, tc := range localTierCorruptions {
		f.Add(tc.mutate(append([]byte(nil), local...)))
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

// sectionSpan locates one section of a snapshot: its table entry and its
// payload.
type sectionSpan struct {
	name    string
	entry   int // offset of the entry's payload length; the CRC follows it
	payload int // offset of the payload
	n       int // payload length
}

// sectionSpans parses the section table of a well-formed snapshot.
func sectionSpans(snap []byte) []sectionSpan {
	le := binary.LittleEndian
	var spans []sectionSpan
	off := 24 // magic, version, fingerprint, section count
	for i := le.Uint32(snap[20:]); i > 0; i-- {
		nameLen := int(le.Uint16(snap[off:]))
		name := string(snap[off+2 : off+2+nameLen])
		off += 2 + nameLen
		spans = append(spans, sectionSpan{name: name, entry: off, n: int(le.Uint64(snap[off:]))})
		off += 8 + 4
	}
	for i := range spans {
		spans[i].payload = off
		off += spans[i].n
	}
	return spans
}

func findSection(snap []byte, name string) sectionSpan {
	for _, sp := range sectionSpans(snap) {
		if sp.name == name {
			return sp
		}
	}
	panic("snapshot has no section " + name)
}

// resealWord overwrites the 8-byte word at offset off of section sp's payload
// and recomputes that section's CRC, so the container check passes and the
// word reaches the state walk.
func resealWord(snap []byte, sp sectionSpan, off int, word uint64) []byte {
	binary.LittleEndian.PutUint64(snap[sp.payload+off:], word)
	binary.LittleEndian.PutUint32(snap[sp.entry+8:], crc32.ChecksumIEEE(snap[sp.payload:sp.payload+sp.n]))
	return snap
}

// wrapsSentinel reports whether err wraps one of the three snapshot error
// sentinels.
func wrapsSentinel(err error) bool {
	return errors.Is(err, hierdrl.ErrCorrupt) || errors.Is(err, hierdrl.ErrVersion) ||
		errors.Is(err, hierdrl.ErrConfigMismatch)
}

// finishRun drains a restored session and summarizes it.
func finishRun(s *hierdrl.Session) error {
	if err := s.Drain(); err != nil {
		return err
	}
	_, err := s.Result()
	return err
}

// FuzzRestoreResealed patches one 8-byte word of one section of a valid
// snapshot — the small fault-free one, agentSnapshot or localSnapshot (the
// LSTM predictors and RL timeouts) — and recomputes that section's CRC. FuzzRestoreState's byte mutations almost never get past the
// CRC check; these always do, so every count, cursor, flag and value a state
// walk reads is exposed to arbitrary input. The invariant: Restore returns an
// error wrapping one of the three sentinels, or a session that steps 200
// events; it never panics or hangs. Outside the agent section an accepted
// session must also drain to its Result without panicking.
func FuzzRestoreResealed(f *testing.F) {
	snaps := [][]byte{smallSnapshot(f), agentSnapshot(f), localSnapshot(f)}
	index := func(snap []byte, name string) uint8 {
		for i, sp := range sectionSpans(snap) {
			if sp.name == name {
				return uint8(i)
			}
		}
		panic("snapshot has no section " + name)
	}
	// The queued-job count whose 48-byte bound wraps past zero.
	f.Add(uint8(0), index(snaps[0], "session"), uint32(9), uint64(384307168202282326))
	f.Add(uint8(1), uint8(4), uint32(0), uint64(1<<61))
	f.Add(uint8(1), uint8(4), uint32(100), uint64(1<<63))
	// Server 0's RL timeout's pending action (rl-pending-action-out-of-range).
	f.Add(uint8(2), index(snaps[2], "cluster"), uint32(2097), uint64(99))

	f.Fuzz(func(t *testing.T, which, sec uint8, off uint32, word uint64) {
		snap := snaps[int(which)%len(snaps)]
		spans := sectionSpans(snap)
		sp := spans[int(sec)%len(spans)]
		if sp.n < 8 {
			return
		}
		data := resealWord(append([]byte(nil), snap...), sp, int(off)%(sp.n-7), word)
		s, err := hierdrl.Restore(bytes.NewReader(data))
		if err != nil {
			if !wrapsSentinel(err) {
				t.Fatalf("section %q word at %d = %#x: error wraps no sentinel: %v", sp.name, int(off)%(sp.n-7), word, err)
			}
			return
		}
		defer s.Close()
		if sp.name != "agent" {
			_ = finishRun(s) // an error is an outcome; only a panic fails
			return
		}
		for i := 0; i < 200; i++ {
			more, err := s.Step()
			if err != nil || !more {
				return
			}
		}
	})
}

// FuzzScenarioValidate fuzzes the fault family of a small steady scenario —
// model, clocks, degrade factor, drain schedule, failure domains and retry
// policy. The invariant: Validate never panics, and a scenario it accepts
// builds a session. The run config supplies RetryMax, which Validate assumes
// to be 1, so the run here sets it to 1.
func FuzzScenarioValidate(f *testing.F) {
	// Model indices follow FaultModels(): 0 correlated-crash, 1 degrade,
	// 2 exp-crash, 3 maintenance-drain, 4 none, 5 fault-free.
	f.Add(uint8(2), 0.0, 600.0, 0.0, 0.0, 0.0, 0, 0, uint8(0))      // MTTF 0
	f.Add(uint8(3), 20000.0, 600.0, 0.0, 0.0, -5.0, 0, 0, uint8(0)) // drain window -5
	f.Add(uint8(1), 20000.0, 600.0, 1.5, 0.0, 0.0, 0, 0, uint8(0))  // degrade factor 1.5
	f.Add(uint8(0), 40000.0, 600.0, 0.0, 0.0, 0.0, 3, 5, uint8(2))  // two racks
	f.Add(uint8(3), 20000.0, 600.0, 0.0, 7200.0, 300.0, 0, 0, uint8(1))

	base, ok := hierdrl.LookupScenario("steady")
	if !ok {
		f.Fatal("steady not registered")
	}
	base = base.Scaled(8, 50)
	models := hierdrl.FaultModels()
	retries := hierdrl.RetryPolicies()
	f.Fuzz(func(t *testing.T, model uint8, mttf, mttr, degrade, drainEvery, drainWindow float64,
		domA, domB int, retry uint8) {
		sc := base
		if i := int(model) % (len(models) + 1); i < len(models) {
			sc.Faults = models[i] // the extra index leaves the scenario fault-free
		}
		sc.MTTFSec, sc.MTTRSec, sc.DegradeFactor = mttf, mttr, degrade
		sc.DrainEverySec, sc.DrainWindowSec = drainEvery, drainWindow
		if domA != 0 || domB != 0 {
			sc.Domains = []hierdrl.FailureDomain{{Name: "a", Count: domA}, {Name: "b", Count: domB}}
		}
		if i := int(retry) % (len(retries) + 1); i < len(retries) {
			sc.Retry = retries[i] // the extra index keeps the run config's policy
		}
		if sc.Validate() != nil {
			return
		}
		cfg := hierdrl.RoundRobin(sc.M)
		cfg.RetryMax = 1
		sc.ApplyTo(&cfg)
		s, err := hierdrl.NewSession(cfg)
		if err != nil {
			t.Fatalf("Validate accepted faults %q retry %q, but NewSession failed: %v", sc.Faults, sc.Retry, err)
		}
		s.Close()
	})
}
