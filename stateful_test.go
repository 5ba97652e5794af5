package hierdrl

import (
	"bytes"
	"errors"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
)

// stateWalks lists every state walk a session drives when it is checkpointed,
// by snapshot section. Between them the shapes in TestStateWalksRejectEveryPrefix
// reach every checkpoint.Stateful in the tree: the walks nest (cluster ->
// per-server DPM -> Q-table, epsilon schedule, integrator, predictor -> Adam;
// metrics -> sketch set -> histograms; agent -> networks, replay, transitions).
func stateWalks(s *Session) map[string]func(*checkpoint.Codec) {
	walks := map[string]func(*checkpoint.Codec){
		secCluster: func(c *checkpoint.Codec) { s.cl.State(c); cluster.TimerState(c, &s.pump, s.sm, pumpFire, s) },
		secSession: s.sessionState,
		secMetrics: s.col.State,
		secAlloc:   func(c *checkpoint.Codec) { c.Component(s.alloc) },
	}
	if s.agent != nil {
		walks[secAgent] = s.agent.State
	}
	return walks
}

// TestStateWalksRejectEveryPrefix is the generic table over the single entry
// point every component now has: a walk run over any strict prefix of its own
// encoded payload must end in ErrCorrupt — never a panic, never success, never
// another sentinel — and over the whole payload must rebuild a component that
// re-encodes to the same bytes, so the two directions cannot have drifted.
func TestStateWalksRejectEveryPrefix(t *testing.T) {
	rl := func(cfg Config, pred PredictorKind) Config {
		cfg.DPM = DPMRL
		cfg.LocalRL = Hierarchical(cfg.M).LocalRL
		cfg.Predictor = pred
		return cfg
	}
	faulty := func(cfg Config, kind FaultKind) Config {
		cfg.Faults = kind
		cfg.MTTFSec, cfg.MTTRSec = 8000, 900
		cfg.DrainEverySec, cfg.DrainWindowSec = 6000, 400
		return cfg
	}
	// The -p2 shapes build their session through the deprecated WithShards(2),
	// a no-op: they pin that the option leaves every walk unchanged.
	shapes := []struct {
		name string
		cfg  Config
		opts []SessionOption
		jobs int
	}{
		{"hierarchical-lstm-p2", func() Config {
			cfg := Hierarchical(6)
			cfg.WarmupTrace = SyntheticTraceForCluster(120, 6, 1001)
			cfg.CheckpointEvery = 40
			return cfg
		}(), []SessionOption{WithShards(2)}, 220},
		// The agent walk over a replay ring that has wrapped twice: slot order
		// is physical, the newest slot sits mid-ring and a terminal slot from
		// the warmup episode has been overwritten.
		{"drl-wrapped-ring-p1", func() Config {
			cfg := DRLOnly(6)
			cfg.Global.ReplayCap = 64
			cfg.WarmupTrace = SyntheticTraceForCluster(40, 6, 1001)
			return cfg
		}(), nil, 220},
		{"crash-backoff-sketch-p1", func() Config {
			cfg := faulty(RoundRobin(6), FaultExpCrash)
			cfg.Alloc, cfg.Retry = AllocLeastLoaded, RetryBackoff
			return cfg
		}(), nil, 1500},
		{"drain-random-ewma-p2", func() Config {
			cfg := faulty(rl(RoundRobin(6), PredictorEWMA), FaultDrain)
			cfg.Alloc = AllocRandom
			return cfg
		}(), []SessionOption{WithShards(2)}, 1500},
		{"degrade-roundrobin-lastvalue-p1", faulty(rl(RoundRobin(6), PredictorLastValue), FaultDegrade), nil, 1500},
		{"packfit-windowmean-p1", func() Config {
			cfg := rl(RoundRobin(6), PredictorWindowMean)
			cfg.Alloc = AllocPackFit
			return cfg
		}(), nil, 600},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			src, err := NewSession(sh.cfg, sh.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if err := src.SubmitTrace(SyntheticTraceForCluster(sh.jobs, sh.cfg.M, 1)); err != nil {
				t.Fatal(err)
			}
			for src.Completed() < int64(sh.jobs/2) {
				if ok, err := src.Step(); err != nil || !ok {
					t.Fatalf("step: ok=%v err=%v", ok, err)
				}
			}
			// A decode target is what Restore builds: the same config without
			// the warmup trace, lanes reset to the snapshot's clocks.
			fresh := func() *Session {
				cfg := sh.cfg
				cfg.WarmupTrace = nil
				dst, err := NewSession(cfg, sh.opts...)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { dst.Close() })
				seq, prioSeq, nFired := src.sm.Counters()
				dst.sm.RestoreBegin(src.sm.Now(), seq, prioSeq, nFired)
				return dst
			}
			// The metrics walk checks its counts against the cluster's
			// completions, so its target holds the decoded cluster first, as
			// in Restore.
			target := func(name string) func(*checkpoint.Codec) {
				dst := fresh()
				if name == secMetrics {
					var enc checkpoint.Codec
					stateWalks(src)[secCluster](&enc)
					d := checkpoint.NewDec(secCluster, enc.Payload())
					stateWalks(dst)[secCluster](d)
					if err := d.End(); err != nil {
						t.Fatalf("cluster under the metrics target: %v", err)
					}
				}
				return stateWalks(dst)[name]
			}
			for name, walk := range stateWalks(src) {
				var enc checkpoint.Codec
				walk(&enc)
				payload := enc.Payload()

				// Every prefix of a small payload; a large one (network
				// weights) is sampled densely at both ends and strided between.
				into := target(name)
				stride := 1 + len(payload)/512
				for n := 0; n < len(payload); n++ {
					if n > 256 && n < len(payload)-256 && n%stride != 0 {
						continue
					}
					d := checkpoint.NewDec(name, payload[:n])
					into(d)
					if err := d.End(); !errors.Is(err, checkpoint.ErrCorrupt) {
						t.Fatalf("%s: %d-byte prefix of %d: got %v, want ErrCorrupt", name, n, len(payload), err)
					}
				}

				// Timers a failed decode scheduled stay behind in the lanes, so
				// the round trip gets a target of its own.
				back := target(name)
				d := checkpoint.NewDec(name, payload)
				back(d)
				if err := d.End(); err != nil {
					t.Fatalf("%s: full payload rejected: %v", name, err)
				}
				var again checkpoint.Codec
				back(&again)
				if !bytes.Equal(again.Payload(), payload) {
					t.Errorf("%s: decode then encode gives %d bytes that differ from the %d decoded", name, len(again.Payload()), len(payload))
				}
			}
		})
	}
}
