package lstm

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"

	"hierdrl/internal/mat"
)

// roundsConfig is a small predictor whose history trims and outgrows its
// array while rounds are in flight: a round must read only its launch-time
// view.
func roundsConfig() PredictorConfig {
	cfg := DefaultPredictorConfig()
	cfg.Lookback = 8
	cfg.Network.Hidden = 6
	cfg.BatchSize = 3
	cfg.TrainEvery = 3
	cfg.HistoryCap = 24
	return cfg
}

// TestPredictorRoundsMatchInline drives two predictors built from one seed
// through one random arrival stream. The first runs on the public path, each
// round on its own goroutine, joined only where the predictor next needs it;
// the second is joined right after every arrival that may launch a round,
// which is training inline. Interleaved Predict, counter and State calls must
// agree bit for bit at every step, and so must the weights at the end.
func TestPredictorRoundsMatchInline(t *testing.T) {
	cfg := roundsConfig()
	async := NewPredictor(cfg, mat.NewRNG(31))
	inline := NewPredictor(cfg, mat.NewRNG(31))
	ops := mat.NewRNG(32)
	now := 0.0
	for step := 0; step < 3000; step++ {
		switch u := ops.Float64(); {
		case u < 0.75:
			gap := math.Exp(ops.Normal(0, 2))
			if ops.Float64() < 0.1 {
				gap = 0 // simultaneous arrivals
			}
			now += gap
			async.ObserveArrival(now)
			inline.ObserveArrival(now)
			inline.Join()
		case u < 0.9:
			if a, b := async.Predict(), inline.Predict(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: Predict %v, inline %v", step, a, b)
			}
		default:
			if !bytes.Equal(predictorBytes(t, async), predictorBytes(t, inline)) {
				t.Fatalf("step %d: State bytes differ from the inline predictor's", step)
			}
		}
		if async.TrainingRounds() != inline.TrainingRounds() || async.ObservedArrivals() != inline.ObservedArrivals() ||
			async.Ready() != inline.Ready() {
			t.Fatalf("step %d: counters (%d rounds, %d arrivals, ready %v), inline (%d, %d, %v)", step,
				async.TrainingRounds(), async.ObservedArrivals(), async.Ready(),
				inline.TrainingRounds(), inline.ObservedArrivals(), inline.Ready())
		}
	}
	if async.TrainingRounds() < 500 {
		t.Fatalf("only %d training rounds; the stream should launch hundreds", async.TrainingRounds())
	}
	async.Join()
	for i, pm := range async.net.Params() {
		want := inline.net.Params()[i]
		for j := range pm.Val {
			if math.Float64bits(pm.Val[j]) != math.Float64bits(want.Val[j]) {
				t.Fatalf("param %s[%d] = %v, inline %v", pm.Name, j, pm.Val[j], want.Val[j])
			}
		}
	}
}

// TestRoundPanicReraisedOnJoin: a round that panics does so on its own
// goroutine; the next call that joins it (Predict, State, the next launch or
// Join) re-raises the panic with the same value on the caller's goroutine,
// while the calls that never wait (ObserveArrival, Ready, TrainingRounds)
// do not. Once joined, the predictor carries on.
func TestRoundPanicReraisedOnJoin(t *testing.T) {
	type boom struct{ n int }
	want := &boom{7}
	var victim atomic.Pointer[Predictor] // rounds of other tests may still run
	SetRoundHook(func(p *Predictor, train func()) {
		if p == victim.Load() {
			panic(want)
		}
		train()
	})
	defer SetRoundHook(nil)

	cfg := roundsConfig()
	joins := map[string]func(p *Predictor){
		"Predict":     func(p *Predictor) { p.Predict() },
		"State":       func(p *Predictor) { predictorBytes(t, p) },
		"next-launch": func(p *Predictor) { p.launchRound() },
		"Join":        func(p *Predictor) { p.Join() },
	}
	for name, join := range joins {
		p := NewPredictor(cfg, mat.NewRNG(41))
		for i := 0; p.TrainingRounds() < 3; i++ {
			p.ObserveArrival(float64(i))
		}
		p.Join()
		victim.Store(p)
		// The launch and the calls that never wait return normally.
		for p.TrainingRounds() < 4 {
			p.ObserveArrival(p.LastArrival() + 1)
		}
		p.Ready()
		got := func() (v any) {
			defer func() { v = recover() }()
			join(p)
			return nil
		}()
		if got != want {
			t.Fatalf("%s: recovered %v, want the round's panic value %v", name, got, want)
		}
		victim.Store(nil)
		p.Join() // already joined: returns at once
		if g := p.Predict(); math.IsNaN(g) {
			t.Fatalf("%s: Predict after the re-raised panic = %v", name, g)
		}
	}
}
