package lstm

import (
	"bytes"
	"math"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/mat"
)

// TestPredictorStateRoundTrip: a predictor restored mid-training must track
// the uninterrupted one bitwise — same weights, same Adam moments, same
// observation window and Welford normalizer, same training cadence counter,
// so identical further arrivals produce identical predictions and identical
// further training rounds.
func TestPredictorStateRoundTrip(t *testing.T) {
	cfg := DefaultPredictorConfig()
	cfg.Lookback = 6
	cfg.TrainEvery = 8
	cfg.BatchSize = 4

	arrival := func(i int) float64 {
		// Deterministic bursty-ish arrival process.
		return float64(i) + 0.4*math.Sin(float64(i)*0.7)
	}

	p1 := NewPredictor(cfg, mat.NewRNG(11))
	i := 0
	for ; i < 40; i++ {
		p1.ObserveArrival(arrival(i))
	}
	if p1.TrainingRounds() == 0 {
		t.Fatal("predictor never trained before the checkpoint; test needs a mid-training snapshot")
	}

	w := checkpoint.NewWriter(0)
	p1.State(w.Section("lstm"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	// Different construction seed: every weight and RNG draw must come from
	// the snapshot, not from construction.
	p2 := NewPredictor(cfg, mat.NewRNG(77))
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := rd.Section("lstm")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	p2.State(d)
	if err := d.End(); err != nil {
		t.Fatalf("State: %v", err)
	}

	if p2.count != p1.count || p2.TrainingRounds() != p1.TrainingRounds() {
		t.Fatalf("counters diverge: (%d,%d) vs (%d,%d)",
			p2.count, p2.TrainingRounds(), p1.count, p1.TrainingRounds())
	}

	// Continue both across at least two more training rounds.
	for ; i < 64; i++ {
		p1.ObserveArrival(arrival(i))
		p2.ObserveArrival(arrival(i))
		if g1, g2 := p1.Predict(), p2.Predict(); math.Float64bits(g1) != math.Float64bits(g2) {
			t.Fatalf("prediction after arrival %d diverges: %v vs %v", i, g1, g2)
		}
	}
	if p1.TrainingRounds() == p2.TrainingRounds() && p1.TrainingRounds() < 6 {
		t.Fatalf("expected further training rounds after restore, got %d", p1.TrainingRounds())
	}
}
