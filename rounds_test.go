package hierdrl_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"hierdrl"
	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
)

// roundPredictors records every LSTM predictor the "test-lstm-rounds" power
// manager builds, so a test can reach the predictors of its session.
var roundPredictors struct {
	sync.Mutex
	all []*lstm.Predictor
}

func init() {
	// The built-in "rl" power manager, keeping hold of its predictor.
	hierdrl.RegisterPowerManager("test-lstm-rounds", func(cfg *hierdrl.Config, _ int, rng *hierdrl.RNG) (hierdrl.PowerManager, error) {
		pred := lstm.NewPredictor(cfg.LSTMPredictor, rng.Split())
		roundPredictors.Lock()
		roundPredictors.all = append(roundPredictors.all, pred)
		roundPredictors.Unlock()
		return local.NewRLTimeout(cfg.LocalRL, pred, rng.Split())
	})
}

// TestSessionCloseJoinsTrainingRounds: Close returns only after every LSTM
// training round its session launched has finished. After a drained run, one
// more round is launched on a server's predictor and held open by the round
// hook; Close is called as the hold is released, and the round must have
// finished by the time Close returns.
func TestSessionCloseJoinsTrainingRounds(t *testing.T) {
	cfg := hierdrl.RoundRobin(3)
	cfg.DPM = "test-lstm-rounds"
	cfg.LocalRL = hierdrl.Hierarchical(3).LocalRL
	cfg.LSTMPredictor = hierdrl.Hierarchical(3).LSTMPredictor
	roundPredictors.Lock()
	roundPredictors.all = nil
	roundPredictors.Unlock()
	s, err := hierdrl.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitTrace(hierdrl.SyntheticTraceForCluster(300, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	roundPredictors.Lock()
	p := roundPredictors.all[0]
	roundPredictors.Unlock()
	if p.TrainingRounds() == 0 {
		t.Fatal("the run trained no round; the test needs a trained predictor")
	}

	// The session is idle, so this goroutine may drive the predictor.
	p.Join()
	held, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	lstm.SetRoundHook(func(q *lstm.Predictor, train func()) {
		if q != p {
			train()
			return
		}
		close(held)
		<-release
		train()
		finished.Store(true)
	})
	defer lstm.SetRoundHook(nil)
	for n := p.TrainingRounds(); p.TrainingRounds() == n; {
		p.ObserveArrival(p.LastArrival() + 30)
	}
	<-held

	done := make(chan bool)
	go func() {
		close(release)
		if err := s.Close(); err != nil {
			t.Error(err)
		}
		done <- finished.Load()
	}()
	if !<-done {
		t.Fatal("Close returned before the training round it launched had finished")
	}
}
