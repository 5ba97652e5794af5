package lstm

import (
	"fmt"
	"math"
	"sync/atomic"

	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
)

// PredictorConfig configures the local-tier workload predictor.
type PredictorConfig struct {
	// Lookback is the number of past inter-arrival times fed to the network.
	// The paper uses 35.
	Lookback int
	// Network configures the underlying LSTM.
	Network NetworkConfig
	// LearningRate for Adam. The paper uses Adam but does not state the rate;
	// 0.005 converges quickly at this scale.
	LearningRate float64
	// TrainEvery controls online training cadence: after every TrainEvery
	// observed arrivals the predictor replays BatchSize recent windows.
	TrainEvery int
	// BatchSize is the number of windows replayed per training round.
	BatchSize int
	// HistoryCap bounds the retained inter-arrival history.
	HistoryCap int
	// ClipNorm is the gradient-norm clip applied before each Adam step.
	ClipNorm float64
}

// DefaultPredictorConfig returns the paper's settings with pragmatic
// defaults where the paper is silent.
func DefaultPredictorConfig() PredictorConfig {
	return PredictorConfig{
		Lookback:     35,
		Network:      DefaultNetworkConfig(),
		LearningRate: 0.005,
		TrainEvery:   16,
		BatchSize:    8,
		HistoryCap:   4096,
		ClipNorm:     10,
	}
}

// Validate reports the first setting NewPredictor — or the network and the
// optimizer it builds — would panic on. TrainEvery and BatchSize take any
// value (below 1 means every arrival, one window).
func (c PredictorConfig) Validate() error {
	switch {
	case c.Lookback < 1:
		return fmt.Errorf("lstm: Lookback must be at least 1, got %d", c.Lookback)
	case c.HistoryCap <= c.Lookback:
		return fmt.Errorf("lstm: HistoryCap %d must exceed Lookback %d", c.HistoryCap, c.Lookback)
	case c.Network.CellIn < 1 || c.Network.Hidden < 1:
		return fmt.Errorf("lstm: network needs CellIn and Hidden of at least 1, got %d and %d", c.Network.CellIn, c.Network.Hidden)
	case !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 1):
		return fmt.Errorf("lstm: LearningRate must be finite and positive, got %v", c.LearningRate)
	case !(c.ClipNorm >= 0) || math.IsInf(c.ClipNorm, 1):
		return fmt.Errorf("lstm: ClipNorm must be finite and non-negative, got %v", c.ClipNorm)
	}
	return nil
}

// Predictor forecasts the next job inter-arrival time for one server from
// its observed arrival history. Raw inter-arrival times span several orders
// of magnitude, so they are modeled in log1p space with running
// standardization (Welford), which keeps the network inputs well-scaled
// without a separate normalization pass.
//
// Each online training round runs on a goroutine of its own, off the
// caller's path, against a launch-time view of the history: the history
// slice as it stood (later arrivals land past its length) and the
// normalization statistics of that instant. While a round is in flight it
// owns net, opt, rng and its window buffer; the caller's goroutine owns
// everything else. Predict, State and the next launch join the round before
// they touch what it owns, so every result is bitwise the one of training
// inline; ObserveArrival, Ready and TrainingRounds never wait. A Predictor is
// not safe for concurrent use: drive it from one goroutine at a time.
type Predictor struct {
	cfg PredictorConfig
	net *Network
	opt *nn.Adam
	rng *mat.RNG

	lastArrival float64 // most recent arrival time, or NaN before the first
	history     []float64

	// Welford running moments of log1p(inter-arrival).
	count   int
	mean    float64
	m2      float64
	trained int
	sinceT  int

	// winBuf is Predict's window; a training round fills its own
	// (round.win), so the two never share a buffer.
	winBuf []float64

	round    roundView
	inFlight bool     // a launched round has not been joined yet
	runRound func()   // p.train, bound once so a launch allocates nothing
	done     chan any // a finished round's recovered panic value, or nil
}

// roundView is what a training round reads besides the weights it trains:
// the history and the normalization statistics as they stood at its launch,
// and the round's own window buffer.
type roundView struct {
	history   []float64
	mean, std float64
	win       []float64
}

// roundHook, when set, runs every training round in place of the direct
// call (SetRoundHook).
var roundHook atomic.Pointer[func(p *Predictor, train func())]

// SetRoundHook makes every training round whose goroutine starts after the
// call run as h(p, train) on that goroutine, where p is the round's
// predictor and train the round, which h must call once; nil restores
// direct calls. Tests use it to hold a round open or to make one panic.
func SetRoundHook(h func(p *Predictor, train func())) {
	if h == nil {
		roundHook.Store(nil)
		return
	}
	roundHook.Store(&h)
}

// NewPredictor returns a Predictor with freshly initialized weights.
func NewPredictor(cfg PredictorConfig, rng *mat.RNG) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	p := &Predictor{
		cfg:         cfg,
		net:         NewNetwork(cfg.Network, rng),
		opt:         nn.NewAdam(cfg.LearningRate),
		rng:         rng,
		lastArrival: math.NaN(),
		winBuf:      make([]float64, cfg.Lookback),
		round:       roundView{win: make([]float64, cfg.Lookback)},
		done:        make(chan any, 1),
	}
	p.runRound = p.train
	return p
}

// ObserveArrival records a job arrival at time t (seconds) and launches
// periodic online training. It never waits for a round in flight.
func (p *Predictor) ObserveArrival(t float64) {
	if !math.IsNaN(p.lastArrival) {
		gap := t - p.lastArrival
		if gap < 0 {
			panic(fmt.Sprintf("lstm: arrivals out of order: %v after %v", t, p.lastArrival))
		}
		p.observeGap(gap)
	}
	p.lastArrival = t
}

func (p *Predictor) observeGap(gap float64) {
	z := math.Log1p(gap)
	p.count++
	delta := z - p.mean
	p.mean += delta / float64(p.count)
	p.m2 += delta * (z - p.mean)

	p.history = append(p.history, gap)
	if len(p.history) > p.cfg.HistoryCap {
		p.history = p.history[len(p.history)-p.cfg.HistoryCap:]
	}
	p.sinceT++
	if p.sinceT >= p.cfg.TrainEvery && len(p.history) > p.cfg.Lookback {
		p.sinceT = 0
		p.launchRound()
	}
}

// launchRound joins the round before it (one round in flight per
// predictor), captures the view the new round reads and starts it. The round
// is counted here, so TrainingRounds and Ready never wait for it.
func (p *Predictor) launchRound() {
	p.Join()
	p.round.history, p.round.mean, p.round.std = p.history, p.mean, p.std()
	p.trained++
	p.inFlight = true
	go p.runRound()
}

// train is the body of a round's goroutine.
func (p *Predictor) train() {
	defer p.finishRound()
	if h := roundHook.Load(); h != nil {
		(*h)(p, p.trainRound)
		return
	}
	p.trainRound()
}

// finishRound hands the round's panic value, or nil, to the next Join.
func (p *Predictor) finishRound() { p.done <- recover() }

// Join waits for the training round in flight, if any, and re-raises its
// panic, with the same value, on the calling goroutine. Predict, State and
// the next launch join by themselves; call Join before dropping a predictor
// to know that none of its rounds still runs.
func (p *Predictor) Join() {
	if !p.inFlight {
		return
	}
	p.inFlight = false
	v := <-p.done
	p.round.history = nil // let a history the foreground has outgrown go
	if v != nil {
		panic(v)
	}
}

func (p *Predictor) std() float64 {
	if p.count < 2 {
		return 1
	}
	s := math.Sqrt(p.m2 / float64(p.count-1))
	if s < 1e-6 {
		return 1e-6
	}
	return s
}

// normalize maps a raw gap to network space under the given moments.
func normalize(gap, mean, std float64) float64 {
	return (math.Log1p(gap) - mean) / std
}

// denormalize maps a network-space value back to seconds (clamped >= 0).
func (p *Predictor) denormalize(z float64) float64 {
	gap := math.Expm1(z*p.std() + p.mean)
	if gap < 0 || math.IsNaN(gap) {
		return 0
	}
	return gap
}

// fillWindow writes into w the len(w) normalized gaps of history that end
// just before index end.
func fillWindow(w, history []float64, end int, mean, std float64) []float64 {
	for i := range w {
		w[i] = normalize(history[end-len(w)+i], mean, std)
	}
	return w
}

// trainRound is one Adam step over BatchSize windows drawn from the round's
// view. It touches only what a round in flight owns.
func (p *Predictor) trainRound() {
	r := &p.round
	params := p.net.Params()
	nn.ZeroGrads(params)
	batch := p.cfg.BatchSize
	if batch <= 0 {
		batch = 1
	}
	scale := 1 / float64(batch)
	for b := 0; b < batch; b++ {
		// Sample a random training window from history, biased toward the
		// recent past (the workload is non-stationary).
		maxEnd := len(r.history) - 1
		minEnd := p.cfg.Lookback
		span := maxEnd - minEnd
		end := maxEnd
		if span > 0 {
			// Quadratic recency bias.
			u := p.rng.Float64()
			end = minEnd + int(float64(span)*math.Sqrt(u))
		}
		target := normalize(r.history[end], r.mean, r.std)
		p.net.BPTT(fillWindow(r.win, r.history, end, r.mean, r.std), target, scale)
	}
	if p.cfg.ClipNorm > 0 {
		nn.ClipGrads(params, p.cfg.ClipNorm)
	}
	p.opt.Step(params)
	p.net.InvalidateTransposes()
}

// Ready reports whether the predictor has enough history for an LSTM
// prediction (otherwise Predict falls back to the running mean).
func (p *Predictor) Ready() bool {
	return len(p.history) >= p.cfg.Lookback && p.trained > 0
}

// Predict returns the expected next inter-arrival time in seconds.
// Before enough history accumulates it falls back to the running mean
// inter-arrival (or a large default when nothing has been observed). It
// joins the training round in flight first.
func (p *Predictor) Predict() float64 {
	p.Join()
	if !p.Ready() {
		if p.count == 0 {
			return math.Inf(1)
		}
		return math.Expm1(p.mean)
	}
	w := fillWindow(p.winBuf, p.history, len(p.history), p.mean, p.std())
	return p.denormalize(p.net.Predict(w))
}

// LastArrival reports the most recent arrival instant, or NaN before the
// first.
func (p *Predictor) LastArrival() float64 { return p.lastArrival }

// TrainingRounds reports how many training rounds have been launched
// (diagnostics); a launched round's Adam step is visible to the next call
// that joins it.
func (p *Predictor) TrainingRounds() int { return p.trained }

// Discretizer maps a continuous inter-arrival prediction to one of n
// categories via explicit boundaries, producing the finite state component
// the local RL power manager needs (paper Sec. VI-A: "we discretize the
// output inter-arrival time prediction by setting n predefined categories").
type Discretizer struct {
	bounds []float64
}

// NewDiscretizer builds a Discretizer from strictly increasing boundaries.
// A prediction x maps to the smallest i with x < bounds[i], or len(bounds)
// when x exceeds every boundary, so there are len(bounds)+1 categories.
func NewDiscretizer(bounds []float64) *Discretizer {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("lstm: Discretizer boundaries must be strictly increasing")
		}
	}
	return &Discretizer{bounds: append([]float64(nil), bounds...)}
}

// Categorize returns the category index for prediction x.
func (d *Discretizer) Categorize(x float64) int {
	for i, b := range d.bounds {
		if x < b {
			return i
		}
	}
	return len(d.bounds)
}

// NumCategories returns the number of categories.
func (d *Discretizer) NumCategories() int { return len(d.bounds) + 1 }
