package hierdrl_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"

	"hierdrl"
)

// TestSessionStickyError pins the post-error contract: once a
// clock-advancing call fails (here: context cancellation mid-run), every
// later Step/StepUntil/Drain returns that same error, and Result reports a
// wrapped partial-run error instead of fabricating measurements from a run
// that never finished.
func TestSessionStickyError(t *testing.T) {
	cfg := faultCfg(6)
	tr := hierdrl.SyntheticTraceForCluster(2000, 6, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var s *hierdrl.Session
	obs := hierdrl.Observer{
		OnJobDone: func(at hierdrl.Time, j *hierdrl.ClusterJob) {
			// Cancel mid-run, once a couple hundred jobs completed.
			if j.ID == 200 {
				cancel()
			}
		},
	}
	s, err := hierdrl.NewSession(cfg,
		hierdrl.WithContext(ctx), hierdrl.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTrace(tr); err != nil {
		t.Fatal(err)
	}

	first := s.Drain()
	if !errors.Is(first, context.Canceled) {
		t.Fatalf("Drain after cancel = %v, want context.Canceled", first)
	}

	// The error is sticky: every subsequent advance returns it verbatim.
	if _, err := s.Step(); !errors.Is(err, context.Canceled) {
		t.Errorf("Step after failure = %v, want sticky context.Canceled", err)
	}
	if err := s.StepUntil(s.Now() + 1); !errors.Is(err, context.Canceled) {
		t.Errorf("StepUntil after failure = %v, want sticky context.Canceled", err)
	}
	if err := s.Drain(); !errors.Is(err, context.Canceled) {
		t.Errorf("Drain after failure = %v, want sticky context.Canceled", err)
	}

	// Result refuses to summarize the partial run, and says why.
	res, err := s.Result()
	if res != nil || err == nil {
		t.Fatalf("Result after failure = (%v, %v), want (nil, partial-run error)", res, err)
	}
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "partial run") {
		t.Errorf("Result error %q: want wrapped partial-run context.Canceled", err)
	}

	// Read-only accessors keep working on the frozen state.
	if s.Completed() == 0 || s.Ingested() == 0 {
		t.Errorf("accessors lost state after failure: completed=%d ingested=%d",
			s.Completed(), s.Ingested())
	}
	s.Close()
}

// TestStepUntilRejectsNonFinite pins StepUntil's argument check, with and
// without faults: a NaN or infinite instant is an error that
// names the value, the session is left exactly as it was (clock, completed
// and pending counts), and the run then drains to the same bits as a session
// that never saw the call. Every session runs under a context deadline, so an
// advance that never returns (unchecked, no fault timer ever compares after
// NaN or reaches +Inf) fails the test instead of stalling the suite.
func TestStepUntilRejectsNonFinite(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tr := hierdrl.SyntheticTraceForCluster(200, 4, 1)
	mid := hierdrl.Time(tr.Jobs[len(tr.Jobs)/2].Arrival)

	for _, cfg := range []hierdrl.Config{hierdrl.RoundRobin(4), faultCfg(4)} {
		// run steps a fresh session to mid, hands it to bad, then drains.
		run := func(name string, bad func(*hierdrl.Session)) [17]uint64 {
			s, err := hierdrl.NewSession(cfg, hierdrl.WithContext(ctx))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			defer s.Close()
			if err := s.SubmitTrace(tr); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := s.StepUntil(mid); err != nil {
				t.Fatalf("%s: StepUntil(mid): %v", name, err)
			}
			bad(s)
			if err := s.Drain(); err != nil {
				t.Fatalf("%s: Drain: %v", name, err)
			}
			res, err := s.Result()
			if err != nil {
				t.Fatalf("%s: Result: %v", name, err)
			}
			return faultBits(res.Summary)
		}

		base := cfg.Name
		want := run(base, func(*hierdrl.Session) {})
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			name := fmt.Sprintf("%s/%v", base, v)
			got := run(name, func(s *hierdrl.Session) {
				now, done, pending := s.Now(), s.Completed(), s.Pending()
				if done == 0 || pending == 0 {
					t.Fatalf("%s: not mid-run: completed=%d pending=%d", name, done, pending)
				}
				err := s.StepUntil(hierdrl.Time(v))
				if err == nil || !strings.Contains(err.Error(), fmt.Sprint(v)) {
					t.Fatalf("%s: StepUntil = %v, want an error naming %v", name, err, v)
				}
				if s.Now() != now || s.Completed() != done || s.Pending() != pending {
					t.Errorf("%s: session moved: now %v -> %v, completed %d -> %d, pending %d -> %d",
						name, now, s.Now(), done, s.Completed(), pending, s.Pending())
				}
			})
			if got != want {
				t.Errorf("%s: summary bits differ from the run that never saw the call", name)
			}
		}
	}
}

// withEmbeddedConfig returns snap with its config section re-encoded after
// edit and the section's length and CRC and the header fingerprint
// recomputed: a snapshot every container check accepts (layout: the comment
// on snapshotCorruptions; the first table entry's CRC is bytes [40,44)).
func withEmbeddedConfig(t *testing.T, snap []byte, edit func(*hierdrl.Config)) []byte {
	t.Helper()
	le := binary.LittleEndian
	if string(snap[26:32]) != "config" {
		t.Fatalf("first section is %q, want config", snap[26:32])
	}
	tableEnd := 24
	for i := le.Uint32(snap[20:]); i > 0; i-- {
		tableEnd += 2 + int(le.Uint16(snap[tableEnd:])) + 8 + 4
	}
	oldLen := int(le.Uint64(snap[32:]))
	var cfg hierdrl.Config
	if err := json.Unmarshal(snap[tableEnd+8:tableEnd+oldLen], &cfg); err != nil {
		t.Fatal(err)
	}
	edit(&cfg)
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := append(le.AppendUint64(nil, uint64(len(cfgJSON))), cfgJSON...)
	h := fnv.New64a()
	h.Write(cfgJSON)
	out := append([]byte(nil), snap[:tableEnd]...)
	le.PutUint64(out[12:], h.Sum64())
	le.PutUint64(out[32:], uint64(len(payload)))
	le.PutUint32(out[40:], crc32.ChecksumIEEE(payload))
	return append(append(out, payload...), snap[tableEnd+oldLen:]...)
}

// TestNewSessionRejectsMalformedLSTMConfig: every Config.LSTMPredictor value
// the predictor, its network or its optimizer used to panic on is an error
// from NewSession, and a CRC-valid, fingerprint-consistent snapshot carrying
// one is ErrConfigMismatch from Restore — never a panic out of either.
func TestNewSessionRejectsMalformedLSTMConfig(t *testing.T) {
	for name, edit := range map[string]func(*hierdrl.Config){
		"history-cap-below-lookback": func(c *hierdrl.Config) { c.LSTMPredictor.HistoryCap = 10 },
		"zero-hidden":                func(c *hierdrl.Config) { c.LSTMPredictor.Network.Hidden = 0 },
		"negative-lookback":          func(c *hierdrl.Config) { c.LSTMPredictor.Lookback = -3 },
		"zero-learning-rate":         func(c *hierdrl.Config) { c.LSTMPredictor.LearningRate = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := hierdrl.ScaleSim(8)
			edit(&cfg)
			s, err := hierdrl.NewSession(cfg)
			if err == nil {
				s.Close()
				t.Fatal("malformed LSTM predictor config accepted")
			}
			if !strings.HasPrefix(err.Error(), "hierdrl: lstm: ") {
				t.Fatalf("error %q does not name the layer that rejected it", err)
			}
		})
	}

	t.Run("restore", func(t *testing.T) {
		s, err := hierdrl.NewSession(hierdrl.ScaleSim(8))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(300, 8, 1)); err != nil {
			t.Fatal(err)
		}
		stepToCompleted(t, s, 150)
		var snap bytes.Buffer
		if err := s.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		// The re-encoding itself is sound: unedited, it reproduces the snapshot.
		same := withEmbeddedConfig(t, snap.Bytes(), func(*hierdrl.Config) {})
		if !bytes.Equal(same, snap.Bytes()) {
			t.Fatal("re-encoding the config unchanged altered the snapshot")
		}
		bad := withEmbeddedConfig(t, snap.Bytes(), func(c *hierdrl.Config) { c.LSTMPredictor.HistoryCap = 1 })
		r, err := hierdrl.Restore(bytes.NewReader(bad))
		if err == nil {
			r.Close()
			t.Fatal("snapshot with HistoryCap = 1 restored")
		}
		if !errors.Is(err, hierdrl.ErrConfigMismatch) {
			t.Fatalf("Restore = %v, want errors.Is(err, ErrConfigMismatch)", err)
		}
	})
}

// TestNewSessionRejectsMalformedLocalRLConfig: every Config.LocalRL value the
// RL power manager's parts used to panic on (a non-increasing PredictorBounds
// out of lstm.NewDiscretizer, an exploration schedule out of
// rl.NewEpsilonGreedy) or silently learn NaNs from (x <= 0 is false for NaN)
// is an error from NewSession naming the layer, and a CRC-valid,
// fingerprint-consistent snapshot carrying one is ErrConfigMismatch from
// Restore — never a panic out of either.
func TestNewSessionRejectsMalformedLocalRLConfig(t *testing.T) {
	nan := math.NaN()
	for name, edit := range map[string]func(*hierdrl.Config){
		"bounds-decreasing":    func(c *hierdrl.Config) { c.LocalRL.PredictorBounds = []float64{30, 15} },
		"bounds-repeated":      func(c *hierdrl.Config) { c.LocalRL.PredictorBounds = []float64{15, 30, 30} },
		"bounds-nan":           func(c *hierdrl.Config) { c.LocalRL.PredictorBounds = []float64{15, nan, 60} },
		"bounds-inf":           func(c *hierdrl.Config) { c.LocalRL.PredictorBounds = []float64{15, math.Inf(1)} },
		"alpha-nan":            func(c *hierdrl.Config) { c.LocalRL.Alpha = nan },
		"beta-nan":             func(c *hierdrl.Config) { c.LocalRL.Beta = nan },
		"beta-inf":             func(c *hierdrl.Config) { c.LocalRL.Beta = math.Inf(1) },
		"epsilon-nan":          func(c *hierdrl.Config) { c.LocalRL.Epsilon = nan },
		"epsilon-above-one":    func(c *hierdrl.Config) { c.LocalRL.Epsilon = 2 },
		"epsilon-min-above":    func(c *hierdrl.Config) { c.LocalRL.EpsilonMin = 0.9 },
		"epsilon-decay-nan":    func(c *hierdrl.Config) { c.LocalRL.EpsilonDecay = nan },
		"power-weight-nan":     func(c *hierdrl.Config) { c.LocalRL.PowerWeight = nan },
		"power-norm-nan":       func(c *hierdrl.Config) { c.LocalRL.PowerNormW = nan },
		"power-norm-inf":       func(c *hierdrl.Config) { c.LocalRL.PowerNormW = math.Inf(1) },
		"optimistic-init-nan":  func(c *hierdrl.Config) { c.LocalRL.OptimisticInit = nan },
		"timeout-action-nan":   func(c *hierdrl.Config) { c.LocalRL.Timeouts = []float64{0, nan} },
		"timeout-action-minus": func(c *hierdrl.Config) { c.LocalRL.Timeouts = []float64{0, -15} },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := hierdrl.Hierarchical(4)
			edit(&cfg)
			s, err := hierdrl.NewSession(cfg)
			if err == nil {
				s.Close()
				t.Fatal("malformed local RL config accepted")
			}
			if !strings.HasPrefix(err.Error(), "hierdrl: local: ") {
				t.Fatalf("error %q does not name the layer that rejected it", err)
			}
		})
	}

	t.Run("restore", func(t *testing.T) {
		s, err := hierdrl.NewSession(hierdrl.ScaleSim(8))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(300, 8, 1)); err != nil {
			t.Fatal(err)
		}
		stepToCompleted(t, s, 150)
		var snap bytes.Buffer
		if err := s.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		bad := withEmbeddedConfig(t, snap.Bytes(), func(c *hierdrl.Config) { c.LocalRL.PredictorBounds = []float64{30, 15} })
		r, err := hierdrl.Restore(bytes.NewReader(bad))
		if err == nil {
			r.Close()
			t.Fatal("snapshot with PredictorBounds = {30, 15} restored")
		}
		if !errors.Is(err, hierdrl.ErrConfigMismatch) {
			t.Fatalf("Restore = %v, want errors.Is(err, ErrConfigMismatch)", err)
		}
	})
}
