package lstm

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
)

func TestCellShapes(t *testing.T) {
	rng := mat.NewRNG(1)
	c := NewCell(2, 4, rng)
	st := c.NewState()
	if len(st.H) != 4 || len(st.C) != 4 {
		t.Fatalf("state dims: H=%d C=%d", len(st.H), len(st.C))
	}
	next, back := c.Step(mat.Vec{0.5, -0.5}, st)
	if len(next.H) != 4 || len(next.C) != 4 {
		t.Fatal("step output dims wrong")
	}
	dx, dh, dc := back(mat.NewVec(4), mat.NewVec(4))
	if len(dx) != 2 || len(dh) != 4 || len(dc) != 4 {
		t.Fatal("backward dims wrong")
	}
}

func TestCellZeroStateIsZero(t *testing.T) {
	rng := mat.NewRNG(2)
	c := NewCell(1, 3, rng)
	st := c.NewState()
	for i := range st.H {
		if st.H[i] != 0 || st.C[i] != 0 {
			t.Fatal("initial state must be zero (paper Sec. VI-A)")
		}
	}
}

func TestCellStateCloneIndependent(t *testing.T) {
	rng := mat.NewRNG(3)
	c := NewCell(1, 2, rng)
	st := c.NewState()
	cl := st.Clone()
	cl.H[0] = 99
	if st.H[0] == 99 {
		t.Fatal("Clone aliases state")
	}
}

// Finite-difference gradient check of a full BPTT pass over a short window.
func TestNetworkBPTTGradCheck(t *testing.T) {
	rng := mat.NewRNG(4)
	cfg := NetworkConfig{CellIn: 2, Hidden: 3, InitStd: 0.5, InitBias: 0.1}
	net := NewNetwork(cfg, rng)
	window := []float64{0.3, -0.5, 0.8, 0.2}
	target := 0.7

	// Predict and BPTT read the cached weight transposes; the loop below
	// perturbs weights through Params.
	lossFn := func() float64 {
		net.InvalidateTransposes()
		d := net.Predict(window) - target
		return d * d
	}

	params := net.Params()
	nn.ZeroGrads(params)
	net.BPTT(window, target, 1)

	const h = 1e-6
	for _, p := range params {
		for i := range p.Val {
			orig := p.Val[i]
			p.Val[i] = orig + h
			lp := lossFn()
			p.Val[i] = orig - h
			lm := lossFn()
			p.Val[i] = orig
			want := (lp - lm) / (2 * h)
			if math.Abs(p.Grad[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %s grad[%d]: analytic %v numeric %v",
					p.Name, i, p.Grad[i], want)
			}
		}
	}
}

// The LSTM must learn a simple alternating sequence far better than chance.
func TestNetworkLearnsAlternatingSequence(t *testing.T) {
	rng := mat.NewRNG(5)
	cfg := NetworkConfig{CellIn: 1, Hidden: 8, InitStd: 0.3, InitBias: 0.1}
	net := NewNetwork(cfg, rng)
	opt := nn.NewAdam(0.01)
	params := net.Params()

	seq := func(i int) float64 {
		if i%2 == 0 {
			return 0.8
		}
		return -0.8
	}
	const look = 6
	for epoch := 0; epoch < 300; epoch++ {
		nn.ZeroGrads(params)
		start := rng.Intn(2)
		w := make([]float64, look)
		for i := range w {
			w[i] = seq(start + i)
		}
		net.BPTT(w, seq(start+look), 1)
		nn.ClipGrads(params, 10)
		opt.Step(params)
		net.InvalidateTransposes()
	}
	w := make([]float64, look)
	for i := range w {
		w[i] = seq(i)
	}
	pred := net.Predict(w)
	if math.Abs(pred-seq(look)) > 0.2 {
		t.Fatalf("failed to learn alternating sequence: pred %v want %v", pred, seq(look))
	}
}

func TestNetworkLearnsLongerPeriodThanMarkov(t *testing.T) {
	// Period-3 pattern requires memory beyond the previous sample; this is
	// exactly the "one long inter-arrival ruins linear predictors" argument
	// of Sec. VI-A.
	rng := mat.NewRNG(6)
	cfg := NetworkConfig{CellIn: 1, Hidden: 12, InitStd: 0.3, InitBias: 0.1}
	net := NewNetwork(cfg, rng)
	opt := nn.NewAdam(0.01)
	params := net.Params()

	pattern := []float64{0.9, -0.2, -0.7}
	seq := func(i int) float64 { return pattern[i%3] }
	const look = 7
	for epoch := 0; epoch < 600; epoch++ {
		nn.ZeroGrads(params)
		start := rng.Intn(3)
		w := make([]float64, look)
		for i := range w {
			w[i] = seq(start + i)
		}
		net.BPTT(w, seq(start+look), 1)
		nn.ClipGrads(params, 10)
		opt.Step(params)
		net.InvalidateTransposes()
	}
	var worst float64
	for start := 0; start < 3; start++ {
		w := make([]float64, look)
		for i := range w {
			w[i] = seq(start + i)
		}
		if e := math.Abs(net.Predict(w) - seq(start+look)); e > worst {
			worst = e
		}
	}
	if worst > 0.25 {
		t.Fatalf("failed to learn period-3 sequence, worst error %v", worst)
	}
}

func TestPredictorFallbacksBeforeTraining(t *testing.T) {
	rng := mat.NewRNG(7)
	cfg := DefaultPredictorConfig()
	p := NewPredictor(cfg, rng)
	if !math.IsInf(p.Predict(), 1) {
		t.Fatal("empty predictor should predict +Inf")
	}
	p.ObserveArrival(0)
	p.ObserveArrival(10)
	p.ObserveArrival(20)
	if p.Ready() {
		t.Fatal("predictor should not be ready with 2 samples")
	}
	// Fallback is the running mean in log space; with constant gaps of 10 it
	// must be close to 10.
	if pred := p.Predict(); math.Abs(pred-10) > 0.5 {
		t.Fatalf("fallback prediction %v want ~10", pred)
	}
}

func TestPredictorLearnsConstantGaps(t *testing.T) {
	rng := mat.NewRNG(8)
	cfg := DefaultPredictorConfig()
	cfg.Lookback = 10
	cfg.TrainEvery = 4
	cfg.BatchSize = 4
	p := NewPredictor(cfg, rng)
	tNow := 0.0
	for i := 0; i < 400; i++ {
		p.ObserveArrival(tNow)
		tNow += 30
	}
	if !p.Ready() {
		t.Fatal("predictor not ready after 400 arrivals")
	}
	pred := p.Predict()
	if math.Abs(pred-30) > 6 {
		t.Fatalf("constant-gap prediction %v want ~30", pred)
	}
}

func TestPredictorLearnsAlternatingGaps(t *testing.T) {
	rng := mat.NewRNG(9)
	cfg := DefaultPredictorConfig()
	cfg.Lookback = 8
	cfg.TrainEvery = 2
	cfg.BatchSize = 6
	p := NewPredictor(cfg, rng)
	tNow := 0.0
	gaps := []float64{5, 120}
	for i := 0; i < 1200; i++ {
		p.ObserveArrival(tNow)
		tNow += gaps[i%2]
	}
	// After arrival i, history ends with gap gaps[(i-1)%2]; the next gap is
	// gaps[i%2]. We observed 1200 arrivals (i = 0..1199), so the next gap is
	// gaps[1199%2] = 120... but check both phases via direct queries.
	pred := p.Predict()
	// The last recorded gap was gaps[1198%2]=5 so next should be 120.
	if math.Abs(pred-120) > 60 {
		t.Fatalf("alternating-gap prediction %v want ~120", pred)
	}
}

func TestPredictorRejectsOutOfOrderArrivals(t *testing.T) {
	rng := mat.NewRNG(10)
	p := NewPredictor(DefaultPredictorConfig(), rng)
	p.ObserveArrival(100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order arrival should panic")
		}
	}()
	p.ObserveArrival(50)
}

func TestPredictorHistoryBounded(t *testing.T) {
	rng := mat.NewRNG(11)
	cfg := DefaultPredictorConfig()
	cfg.Lookback = 5
	cfg.HistoryCap = 64
	cfg.TrainEvery = 1000000 // disable training for this test
	p := NewPredictor(cfg, rng)
	for i := 0; i < 1000; i++ {
		p.ObserveGap(float64(i%7) + 1)
	}
	if len(p.history) > 64 {
		t.Fatalf("history grew to %d, cap 64", len(p.history))
	}
	if p.ObservedArrivals() != 1000 {
		t.Fatalf("ObservedArrivals %d want 1000", p.ObservedArrivals())
	}
}

func TestDiscretizer(t *testing.T) {
	d := NewDiscretizer([]float64{10, 20, 40})
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {9.99, 0}, {10, 1}, {15, 1}, {20, 2}, {39, 2}, {40, 3}, {1e9, 3},
	}
	for _, tc := range cases {
		if got := d.Categorize(tc.x); got != tc.want {
			t.Errorf("Categorize(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if d.NumCategories() != 4 {
		t.Fatalf("NumCategories: got %d want 4", d.NumCategories())
	}
}

func TestDiscretizerMonotoneProperty(t *testing.T) {
	d := NewDiscretizer([]float64{15, 30, 60, 90, 120, 300})
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return d.Categorize(a) <= d.Categorize(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscretizerPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted boundaries should panic")
		}
	}()
	NewDiscretizer([]float64{10, 10})
}

func TestNetworkParamCount(t *testing.T) {
	rng := mat.NewRNG(12)
	cfg := DefaultNetworkConfig() // CellIn=1, Hidden=30
	net := NewNetwork(cfg, rng)
	// in: 1*1+1 = 2; cell: 4 gates * ((1+30)*30 + 30) = 4*960 = 3840;
	// out: 30*1+1 = 31. Total 3873.
	if got := net.NumParams(); got != 3873 {
		t.Fatalf("NumParams: got %d want 3873", got)
	}
}

func TestConstructorPanics(t *testing.T) {
	rng := mat.NewRNG(13)
	cases := []struct {
		name string
		fn   func()
	}{
		{"CellZeroIn", func() { NewCell(0, 3, rng) }},
		{"NetworkBad", func() { NewNetwork(NetworkConfig{}, rng) }},
		{"PredictorZeroLookback", func() {
			cfg := DefaultPredictorConfig()
			cfg.Lookback = 0
			NewPredictor(cfg, rng)
		}},
		{"PredictorTinyCap", func() {
			cfg := DefaultPredictorConfig()
			cfg.HistoryCap = cfg.Lookback
			NewPredictor(cfg, rng)
		}},
		{"NegativeGap", func() {
			NewPredictor(DefaultPredictorConfig(), rng).ObserveGap(-1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// referenceBPTT is the per-sample unroll the batched BPTT replaced:
// Dense.Forward + Cell.Step closures per time step, backward in descending
// time. Run sample after sample it defines every accumulated gradient the
// batched pass must reproduce bit for bit.
func referenceBPTT(n *Network, window []float64, target, weight float64) float64 {
	inBacks := make([]func(mat.Vec) mat.Vec, len(window))
	stepBacks := make([]StepBack, len(window))
	st := n.cell.NewState()
	for t, v := range window {
		cellIn, inBack := n.in.Forward(mat.Vec{v})
		var back StepBack
		st, back = n.cell.Step(cellIn, st)
		inBacks[t] = inBack
		stepBacks[t] = back
	}
	pred, outBack := n.out.Forward(st.H)
	err := pred[0] - target
	dH := outBack(mat.Vec{2 * weight * err})
	dC := mat.NewVec(n.cfg.Hidden)
	for t := len(window) - 1; t >= 0; t-- {
		dx, dHPrev, dCPrev := stepBacks[t](dH, dC)
		inBacks[t](dx)
		dH, dC = dHPrev, dCPrev
	}
	return err * err
}

// referenceTrainRound is trainRound over referenceBPTT: the same draws from
// the predictor's RNG, one unroll per sample, then the same clip and step.
func referenceTrainRound(p *Predictor) {
	params := p.net.Params()
	nn.ZeroGrads(params)
	batch := max(p.cfg.BatchSize, 1)
	w := make([]float64, p.cfg.Lookback)
	for b := 0; b < batch; b++ {
		maxEnd, minEnd := len(p.history)-1, p.cfg.Lookback
		end := maxEnd
		if span := maxEnd - minEnd; span > 0 {
			end = minEnd + int(float64(span)*math.Sqrt(p.rng.Float64()))
		}
		target := normalize(p.history[end], p.mean, p.std())
		referenceBPTT(p.net, fillWindow(w, p.history, end, p.mean, p.std()), target, 1/float64(batch))
	}
	if p.cfg.ClipNorm > 0 {
		nn.ClipGrads(params, p.cfg.ClipNorm)
	}
	p.opt.Step(params)
	p.net.InvalidateTransposes()
	p.trained++
	p.sinceT = 0
}

// predictorBytes is the predictor's checkpoint payload: every weight, both
// Adam moments of each, the RNG and the observation trajectory.
func predictorBytes(t *testing.T, p *Predictor) []byte {
	t.Helper()
	w := checkpoint.NewWriter(0)
	p.State(w.Section("lstm"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// TestTrainRoundMatchesReferenceUnroll pins the batched training round to the
// closure unroll. A predictor trained online by trainRound and one trained at
// the same arrivals by referenceTrainRound under the portable family (scalar
// loops only) must hold the same bits after every round — weights, Adam
// moments, RNG — under each kernel family; then one more batch, holding a
// window with exact zeros and a sample whose error is exactly zero (so whole
// rows of dPre are skipped), must yield the same summed loss and the same
// gradients.
func TestTrainRoundMatchesReferenceUnroll(t *testing.T) {
	shapes := []struct{ lookback, cellIn, hidden, batch int }{
		{35, 1, 30, 4}, {35, 1, 30, 8}, {16, 1, 8, 2}, {3, 1, 1, 1}, {5, 1, 9, 3}, {6, 9, 5, 3},
	}
	for _, sh := range shapes {
		cfg := DefaultPredictorConfig()
		cfg.Lookback = sh.lookback
		cfg.Network.CellIn = sh.cellIn
		cfg.Network.Hidden = sh.hidden
		cfg.BatchSize = sh.batch
		cfg.TrainEvery = 5
		cfg.HistoryCap = 3 * sh.lookback
		const arrivals = 60
		gaps := make([]float64, sh.lookback+arrivals)
		g := mat.NewRNG(21)
		for i := range gaps {
			gaps[i] = math.Exp(g.Normal(1, 1.5))
		}
		// The final batch: row 0 random with exact zeros, row 1 (if any) such
		// that its target is its own prediction, the rest random.
		finalBatch := func(p *Predictor) (*mat.Dense, []float64) {
			windows := mat.NewDense(sh.batch, sh.lookback)
			g := mat.NewRNG(22)
			g.FillNormal(windows, 0, 1)
			for j := 0; j < sh.lookback; j += 2 {
				windows.Data[j] = 0
			}
			targets := make([]float64, sh.batch)
			for s := range targets {
				targets[s] = g.Normal(0, 1)
			}
			if sh.batch > 1 {
				targets[1] = p.net.Predict(windows.Row(1))
			}
			return windows, targets
		}

		// Reference: training disabled on the predictor itself, one
		// referenceTrainRound wherever the real one trains.
		var wantRounds [][]byte
		var wantLoss float64
		var wantGrads [][]float64
		mat.ForEachKernelFamily(func(family string) {
			if family != "portable" {
				return
			}
			refCfg := cfg
			refCfg.TrainEvery = math.MaxInt
			ref := NewPredictor(refCfg, mat.NewRNG(20))
			for _, gap := range gaps {
				ref.ObserveGap(gap)
				if ref.sinceT >= cfg.TrainEvery && len(ref.history) > cfg.Lookback {
					referenceTrainRound(ref)
					wantRounds = append(wantRounds, predictorBytes(t, ref))
				}
			}
			windows, targets := finalBatch(ref)
			nn.ZeroGrads(ref.net.Params())
			for s, target := range targets {
				wantLoss += referenceBPTT(ref.net, windows.Row(s), target, 0.3)
			}
			for _, p := range ref.net.Params() {
				wantGrads = append(wantGrads, append([]float64(nil), p.Grad...))
			}
		})
		if len(wantRounds) < 10 {
			t.Fatalf("shape %+v: reference trained %d rounds, want >= 10", sh, len(wantRounds))
		}

		mat.ForEachKernelFamily(func(family string) {
			p := NewPredictor(cfg, mat.NewRNG(20))
			rounds := 0
			for _, gap := range gaps {
				p.ObserveGap(gap)
				if p.TrainingRounds() == rounds {
					continue
				}
				if rounds >= len(wantRounds) || !bytes.Equal(predictorBytes(t, p), wantRounds[rounds]) {
					t.Fatalf("%s shape %+v: state after round %d differs from the reference unroll", family, sh, rounds+1)
				}
				rounds++
			}
			if rounds != len(wantRounds) {
				t.Fatalf("%s shape %+v: trained %d rounds, reference %d", family, sh, rounds, len(wantRounds))
			}
			windows, targets := finalBatch(p)
			nn.ZeroGrads(p.net.Params())
			var loss float64
			for s, target := range targets {
				loss += p.net.BPTT(windows.Row(s), target, 0.3)
			}
			if math.Float64bits(loss) != math.Float64bits(wantLoss) {
				t.Fatalf("%s shape %+v: loss %v != reference %v", family, sh, loss, wantLoss)
			}
			for i, pm := range p.net.Params() {
				for j, got := range pm.Grad {
					if math.Float64bits(got) != math.Float64bits(wantGrads[i][j]) {
						t.Fatalf("%s shape %+v: param %s grad[%d] = %v, reference %v",
							family, sh, pm.Name, j, got, wantGrads[i][j])
					}
				}
			}
		})
	}
}

// TestBPTTZeroAllocOnceWarm: a warm BPTT sample, a whole warm training
// round around it (window draws, clip, Adam step) launched on its goroutine
// and joined, and a warm ObserveGap that launches a round, allocate nothing.
func TestBPTTZeroAllocOnceWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under -race")
	}
	// The paper's predictor shape and the scale presets' compact one, whose
	// narrow matrices fall below the SIMD tiles' widths.
	for _, shape := range []struct{ lookback, hidden, batch int }{{35, 30, 4}, {16, 8, 2}} {
		cfg := DefaultPredictorConfig()
		cfg.Lookback = shape.lookback
		cfg.Network.Hidden = shape.hidden
		cfg.BatchSize = shape.batch
		net := NewNetwork(cfg.Network, mat.NewRNG(3))
		window := make([]float64, shape.lookback)
		g := mat.NewRNG(4)
		for i := range window {
			window[i] = g.Normal(0, 1)
		}
		// The first call sizes the tape — one block — and builds the cached
		// transposes, not a vector per field per time step.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net.BPTT(window, 0.3, 1)
		runtime.ReadMemStats(&after)
		if cold := after.Mallocs - before.Mallocs; cold > 5 {
			t.Fatalf("%+v: cold BPTT allocates %d objects, want <= 5", shape, cold)
		}
		if avg := testing.AllocsPerRun(50, func() { net.BPTT(window, 0.3, 1) }); avg != 0 {
			t.Fatalf("%+v: warm BPTT allocates %v per sample, want 0", shape, avg)
		}

		p := NewPredictor(cfg, mat.NewRNG(5))
		for p.TrainingRounds() < 2 {
			p.ObserveGap(math.Exp(g.Normal(1, 1)))
		}
		if avg := testing.AllocsPerRun(50, func() { p.launchRound(); p.Join() }); avg != 0 {
			t.Fatalf("%+v: warm training round allocates %v, want 0", shape, avg)
		}

		// Each run below observes TrainEvery gaps, the last of which joins
		// the round before it and launches one. The history is appended to
		// in place until it outgrows its array, one reallocation per ~1,000
		// arrivals at the default cap; warm up to just past one so the 51
		// runs (the first is AllocsPerRun's own warm-up) fit in the slack.
		gaps := cfg.TrainEvery * 51
		for i := 0; p.sinceT != 0 || cap(p.history)-len(p.history) < gaps; i++ {
			if i == 4*cfg.HistoryCap {
				t.Fatalf("%+v: the history never had room for %d appends", shape, gaps)
			}
			p.ObserveGap(math.Exp(g.Normal(1, 1)))
		}
		observe := func() {
			for i := 0; i < cfg.TrainEvery; i++ {
				p.ObserveGap(1.5)
			}
		}
		rounds := p.TrainingRounds()
		if avg := testing.AllocsPerRun(50, observe); avg != 0 {
			t.Fatalf("%+v: warm ObserveGap launching a round allocates %v, want 0", shape, avg)
		}
		if got := p.TrainingRounds() - rounds; got != 51 {
			t.Fatalf("%+v: the pin launched %d rounds, want 51", shape, got)
		}
		p.Join()
	}
}
