package hierdrl_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"hierdrl"
)

// TestSessionStickyError pins the post-error contract on both tiers: once a
// clock-advancing call fails (here: context cancellation mid-run), every
// later Step/StepUntil/Drain returns that same error, and Result reports a
// wrapped partial-run error instead of fabricating measurements from a run
// that never finished.
func TestSessionStickyError(t *testing.T) {
	for _, p := range []int{1, 2} {
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
		s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(p),
			hierdrl.WithContext(ctx), hierdrl.WithObserver(obs))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if err := s.SubmitTrace(tr); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}

		first := s.Drain()
		if !errors.Is(first, context.Canceled) {
			t.Fatalf("P=%d: Drain after cancel = %v, want context.Canceled", p, first)
		}

		// The error is sticky: every subsequent advance returns it verbatim.
		if _, err := s.Step(); !errors.Is(err, context.Canceled) {
			t.Errorf("P=%d: Step after failure = %v, want sticky context.Canceled", p, err)
		}
		if err := s.StepUntil(s.Now() + 1); !errors.Is(err, context.Canceled) {
			t.Errorf("P=%d: StepUntil after failure = %v, want sticky context.Canceled", p, err)
		}
		if err := s.Drain(); !errors.Is(err, context.Canceled) {
			t.Errorf("P=%d: Drain after failure = %v, want sticky context.Canceled", p, err)
		}

		// Result refuses to summarize the partial run, and says why.
		res, err := s.Result()
		if res != nil || err == nil {
			t.Fatalf("P=%d: Result after failure = (%v, %v), want (nil, partial-run error)", p, res, err)
		}
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "partial run") {
			t.Errorf("P=%d: Result error %q: want wrapped partial-run context.Canceled", p, err)
		}

		// Read-only accessors keep working on the frozen state.
		if s.Completed() == 0 || s.Ingested() == 0 {
			t.Errorf("P=%d: accessors lost state after failure: completed=%d ingested=%d",
				p, s.Completed(), s.Ingested())
		}
		s.Close()
	}
}

// TestStepUntilRejectsNonFinite pins StepUntil's argument check on both
// tiers, with and without faults: a NaN or infinite instant is an error that
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
		for _, p := range []int{1, 2} {
			// run steps a fresh session to mid, hands it to bad, then drains.
			run := func(name string, bad func(*hierdrl.Session)) [17]uint64 {
				s, err := hierdrl.NewSession(cfg, hierdrl.WithShards(p), hierdrl.WithContext(ctx))
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

			base := fmt.Sprintf("%s/P=%d", cfg.Name, p)
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
}
