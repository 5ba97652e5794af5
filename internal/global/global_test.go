package global

import (
	"math"
	"testing"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
	"hierdrl/internal/sim"
)

func testView(m int, utils []float64) *cluster.View {
	v := &cluster.View{
		Now:      sim.Time(0),
		M:        m,
		Util:     make([]cluster.Resources, m),
		Pending:  make([]cluster.Resources, m),
		QueueLen: make([]int, m),
		InSystem: make([]int, m),
		State:    make([]cluster.PowerState, m),
	}
	for i := 0; i < m; i++ {
		u := 0.0
		if i < len(utils) {
			u = utils[i]
		}
		v.Util[i] = cluster.Resources{u, u / 2, u / 4}
		v.State[i] = cluster.StateActive
	}
	return v
}

func testJob(cpu, dur float64) *cluster.Job {
	return &cluster.Job{ID: 0, Duration: dur, Req: cluster.Resources{cpu, cpu / 2, cpu / 4}, Server: -1}
}

func TestEncoderLayout(t *testing.T) {
	e, err := NewEncoder(6, 3, 7200)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	if e.GroupDim() != 2*cluster.NumResources || e.JobDim() != cluster.NumResources+1 {
		t.Fatalf("dims: group=%d job=%d", e.GroupDim(), e.JobDim())
	}
	if e.GroupOf(0) != 0 || e.GroupOf(2) != 1 || e.GroupOf(5) != 2 {
		t.Fatal("GroupOf wrong")
	}
	if e.OffsetOf(3) != 1 || e.ServerOf(1, 1) != 3 {
		t.Fatal("OffsetOf/ServerOf wrong")
	}
	if _, err := NewEncoder(7, 3, 7200); err == nil {
		t.Fatal("non-divisible M accepted")
	}
	if _, err := NewEncoder(6, 3, 0); err == nil {
		t.Fatal("zero duration norm accepted")
	}
}

func TestEncoderStateContents(t *testing.T) {
	e, _ := NewEncoder(4, 2, 7200)
	v := testView(4, []float64{0.1, 0.2, 0.3, 0.4})
	s := e.Encode(v, testJob(0.5, 3600))
	// One block: two groups of two servers, then the job features.
	if len(s.v) != e.StateDim() || len(s.Groups()) != 2*e.GroupDim() || len(s.Group(1)) != e.GroupDim() {
		t.Fatalf("block %d, groups %d, group %d", len(s.v), len(s.Groups()), len(s.Group(1)))
	}
	// Group 0 holds servers 0,1: CPU utils at positions 0 and NumResources.
	if s.Group(0)[0] != 0.1 || s.Group(0)[cluster.NumResources] != 0.2 {
		t.Fatalf("group 0 contents: %v", s.Group(0))
	}
	if s.Group(1)[0] != 0.3 {
		t.Fatalf("group 1 contents: %v", s.Group(1))
	}
	// Job: [0.5, 0.25, 0.125, 0.5].
	if s.Job()[0] != 0.5 || s.Job()[cluster.NumResources] != 0.5 {
		t.Fatalf("job state: %v", s.Job())
	}
	// Duration clamps at 1.
	s2 := e.Encode(v, testJob(0.5, 99999))
	if s2.Job()[cluster.NumResources] != 1 {
		t.Fatalf("duration not clamped: %v", s2.Job()[cluster.NumResources])
	}
}

func TestStateCloneIndependent(t *testing.T) {
	e, _ := NewEncoder(4, 2, 7200)
	s := e.Encode(testView(4, []float64{0.1, 0.2, 0.3, 0.4}), testJob(0.5, 100))
	var c State
	s.CloneInto(&c)
	block := c.v
	c.Group(0)[0] = 9
	c.Job()[0] = 9
	if s.Group(0)[0] == 9 || s.Job()[0] == 9 {
		t.Fatal("CloneInto aliases buffers")
	}
	// A shaped destination is refilled in place.
	s.CloneInto(&c)
	if &c.v[0] != &block[0] || c.Group(0)[0] != s.Group(0)[0] || c.Job()[0] != s.Job()[0] {
		t.Fatal("CloneInto into a shaped state must reuse its block")
	}
}

func qnetFixture(t *testing.T, m int, share, useAE bool) (*Encoder, *QNetwork) {
	t.Helper()
	cfg := DefaultConfig(m)
	cfg.K = 2
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	cfg.ShareWeights = share
	cfg.UseAutoencoder = useAE
	enc, err := NewEncoder(m, cfg.K, cfg.DurationNormSec)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	return enc, NewQNetwork(enc, cfg, mat.NewRNG(7))
}

func TestQNetworkShapes(t *testing.T) {
	for _, share := range []bool{true, false} {
		for _, useAE := range []bool{true, false} {
			enc, net := qnetFixture(t, 6, share, useAE)
			s := enc.Encode(testView(6, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}),
				testJob(0.3, 600))
			q := net.QValues(s)
			if len(q) != 6 {
				t.Fatalf("share=%v ae=%v: %d Q values want 6", share, useAE, len(q))
			}
			for a := 0; a < 6; a++ {
				if got := net.Q(s, a); math.Abs(got-q[a]) > 1e-12 {
					t.Fatalf("Q(s,%d)=%v but QValues[%d]=%v", a, got, a, q[a])
				}
			}
			best, val := net.Best(s)
			if bi, bv := q.Max(); best != bi || val != bv {
				t.Fatalf("Best mismatch: (%d,%v) vs (%d,%v)", best, val, bi, bv)
			}
		}
	}
}

func TestQNetworkWeightSharingParamCounts(t *testing.T) {
	_, shared := qnetFixture(t, 6, true, true)
	_, unshared := qnetFixture(t, 6, false, true)
	if unshared.NumParams() != 2*shared.NumParams() {
		t.Fatalf("K=2 unshared params %d want 2x shared %d",
			unshared.NumParams(), shared.NumParams())
	}
}

// Gradient check of the full Fig. 6 path: Sub-Q head plus remote-group
// encoders.
func TestQNetworkGradCheck(t *testing.T) {
	enc, net := qnetFixture(t, 4, true, true)
	s := enc.Encode(testView(4, []float64{0.3, 0.7, 0.2, 0.9}), testJob(0.4, 1000))
	item := TrainItem{S: s, Action: 2, Target: 0.5}

	lossFn := func() float64 {
		d := net.Q(s, 2) - 0.5
		return d * d
	}
	params := net.Params()
	nn.ZeroGrads(params)
	net.accumulate(item, 1)

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

func TestQNetworkTrainBatchReducesError(t *testing.T) {
	enc, net := qnetFixture(t, 4, true, true)
	rng := mat.NewRNG(3)
	opt := nn.NewAdam(0.01)

	mkItem := func() TrainItem {
		utils := make([]float64, 4)
		for i := range utils {
			utils[i] = rng.Float64()
		}
		s := enc.Encode(testView(4, utils), testJob(0.2+0.5*rng.Float64(), 600))
		// Learnable rule: target = CPU util of the chosen server's slot.
		a := rng.Intn(4)
		return TrainItem{S: s, Action: a, Target: utils[a]}
	}

	var first, last float64
	for step := 0; step < 400; step++ {
		batch := make([]TrainItem, 16)
		for i := range batch {
			batch[i] = mkItem()
		}
		loss := net.TrainBatch(batch, opt)
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last > first/4 {
		t.Fatalf("training did not reduce loss: first %v last %v", first, last)
	}
}

func TestQNetworkTargetSyncMakesIdentical(t *testing.T) {
	enc, net := qnetFixture(t, 4, true, true)
	_, tgt := qnetFixture(t, 4, true, true)
	s := enc.Encode(testView(4, []float64{0.5, 0.1, 0.9, 0.3}), testJob(0.2, 300))
	// Fresh nets from different RNG draws differ... (same seed here, so
	// perturb first).
	net.Params()[0].Val[0] += 0.5
	qa := net.QValues(s)
	qb := tgt.QValues(s)
	diff := false
	for i := range qa {
		if qa[i] != qb[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("expected nets to differ before sync")
	}
	tgt.CopyWeightsFrom(net)
	qb = tgt.QValues(s)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatal("networks differ after CopyWeightsFrom")
		}
	}
}

func TestPretrainAutoencoderReducesReconstruction(t *testing.T) {
	enc, net := qnetFixture(t, 6, true, true)
	rng := mat.NewRNG(11)
	// Group states drawn from a 1-D family (scaled ramp): compressible.
	samples := make([]mat.Vec, 200)
	for i := range samples {
		g := mat.NewVec(enc.GroupDim())
		a := rng.Float64()
		for d := range g {
			g[d] = a * float64(d) / float64(len(g))
		}
		samples[i] = g
	}
	before := 0.0
	for _, s := range samples[:50] {
		before += net.aes[0].ReconstructionLoss(s)
	}
	net.PretrainAutoencoder(samples, 300, 16, 1e-3, rng)
	after := 0.0
	for _, s := range samples[:50] {
		after += net.aes[0].ReconstructionLoss(s)
	}
	if after >= before/2 {
		t.Fatalf("AE pretraining ineffective: before %v after %v", before, after)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(30).Validate(30); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if err := DefaultConfig(40).Validate(40); err != nil {
		t.Fatalf("default config M=40 rejected: %v", err)
	}
	mod := func(f func(*Config)) Config {
		c := DefaultConfig(30)
		f(&c)
		return c
	}
	bad := []Config{
		mod(func(c *Config) { c.K = 7 }), // 30 % 7 != 0
		mod(func(c *Config) { c.AEHidden = nil }),
		mod(func(c *Config) { c.SubQHidden = 0 }),
		mod(func(c *Config) { c.Beta = 0 }),
		mod(func(c *Config) { c.LearningRate = 0 }),
		mod(func(c *Config) { c.MiniBatch = 0 }),
		mod(func(c *Config) { c.MiniBatch = c.ReplayCap + 1 }),
		mod(func(c *Config) { c.TrainEvery = 0 }),
		mod(func(c *Config) { c.W1 = -1 }),
		mod(func(c *Config) { c.PowerNormW = 0 }),
	}
	for i, c := range bad {
		if err := c.Validate(30); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultConfigKSelection(t *testing.T) {
	cases := map[int]int{30: 3, 40: 4, 8: 4, 10: 2, 7: 1, 9: 3}
	for m, wantK := range cases {
		if got := DefaultConfig(m).K; got != wantK {
			t.Errorf("DefaultConfig(%d).K = %d want %d", m, got, wantK)
		}
	}
}

func newTestAgent(t *testing.T, m int) *Agent {
	t.Helper()
	cfg := DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	cfg.ReplayCap = 512
	cfg.MiniBatch = 8
	cfg.TrainEvery = 8
	a, err := NewAgent(cfg, m, mat.NewRNG(5))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	return a
}

func TestAgentAllocateAndTransitions(t *testing.T) {
	a := newTestAgent(t, 4)
	v := testView(4, []float64{0.1, 0.2, 0.3, 0.4})
	a.ObserveCluster(0, 200, 2, 0)

	for i := 0; i < 20; i++ {
		v.Now = sim.Time(float64(i) * 10)
		a.ObserveCluster(v.Now, 200+float64(i), 2, 0)
		got := a.Allocate(testJob(0.2, 300), v)
		if got < 0 || got >= 4 {
			t.Fatalf("action %d out of range", got)
		}
	}
	if a.Decisions() != 20 {
		t.Fatalf("decisions %d want 20", a.Decisions())
	}
	// 19 completed transitions (the 20th is pending).
	if a.ReplayLen() != 19 {
		t.Fatalf("replay %d want 19", a.ReplayLen())
	}
	if a.Updates() == 0 {
		t.Fatal("no training updates ran")
	}
	a.FinishEpisode(sim.Time(500))
	if a.ReplayLen() != 20 {
		t.Fatalf("replay after FinishEpisode %d want 20", a.ReplayLen())
	}
	// Idempotent.
	a.FinishEpisode(sim.Time(501))
	if a.ReplayLen() != 20 {
		t.Fatal("FinishEpisode not idempotent")
	}
	if a.String() == "" {
		t.Fatal("String must render")
	}
}

func TestAgentFreezeStopsLearning(t *testing.T) {
	a := newTestAgent(t, 4)
	v := testView(4, nil)
	a.ObserveCluster(0, 100, 0, 0)
	a.FreezePolicy()
	for i := 0; i < 40; i++ {
		v.Now = sim.Time(float64(i))
		a.Allocate(testJob(0.2, 300), v)
	}
	if a.Updates() != 0 {
		t.Fatalf("frozen agent trained %d times", a.Updates())
	}
	if a.Epsilon() != 0 {
		t.Fatalf("frozen epsilon %v", a.Epsilon())
	}
}

// The agent must learn an allocation preference: with reward dominated by a
// hand-crafted signal that penalizes choosing busy servers (via the
// reliability term), greedy actions should concentrate on idle servers.
func TestAgentLearnsToAvoidHotServer(t *testing.T) {
	m := 4
	cfg := DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 24
	cfg.ReplayCap = 4096
	cfg.MiniBatch = 16
	cfg.TrainEvery = 4
	cfg.Epsilon = 0.3
	cfg.EpsilonMin = 0.1
	cfg.EpsilonDecay = 0.999
	cfg.LearningRate = 3e-3
	a, err := NewAgent(cfg, m, mat.NewRNG(9))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}

	// Synthetic environment: server 0 is "hot" — choosing it yields a much
	// worse reward rate during the sojourn. Other servers are fine.
	v := testView(m, []float64{0.95, 0.1, 0.1, 0.1})
	now := 0.0
	for i := 0; i < 1500; i++ {
		v.Now = sim.Time(now)
		a.ObserveCluster(v.Now, 100, 1, 0)
		act := a.Allocate(testJob(0.2, 300), v)
		// Reward during the sojourn reflects the choice.
		penalty := 0.0
		if act == 0 {
			penalty = float64(m) * 3 // large reliability hit
		}
		a.ObserveCluster(sim.Time(now+0.01), 100, 1, penalty)
		now += 5
	}
	a.FreezePolicy()
	v.Now = sim.Time(now)
	s := a.EncoderRef().Encode(v, testJob(0.2, 300))
	best, _ := a.Network().Best(s)
	if best == 0 {
		q := a.Network().QValues(s)
		t.Fatalf("agent still prefers the hot server: Q=%v", q)
	}
}

func TestAgentPretrainAutoencoder(t *testing.T) {
	a := newTestAgent(t, 4)
	v := testView(4, []float64{0.5, 0.2, 0.7, 0.1})
	a.ObserveCluster(0, 100, 0, 0)
	for i := 0; i < 50; i++ {
		v.Now = sim.Time(float64(i))
		a.Allocate(testJob(0.3, 200), v)
	}
	if loss := a.PretrainAutoencoder(50); loss <= 0 {
		t.Fatalf("AE pretrain loss %v, want positive (it trained)", loss)
	}
}

func TestAgentValidatesConfig(t *testing.T) {
	cfg := DefaultConfig(30)
	cfg.K = 7
	if _, err := NewAgent(cfg, 30, mat.NewRNG(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestEncodeServersRangeMatchesFull asserts that range-gathered encoding
// writes a state bitwise identical to the one-pass EncodeInto, for ranges
// that straddle group boundaries.
func TestEncodeServersRangeMatchesFull(t *testing.T) {
	m, k := 12, 3
	enc, err := NewEncoder(m, k, 7200)
	if err != nil {
		t.Fatal(err)
	}
	rng := mat.NewRNG(5)
	v := &cluster.View{
		M:        m,
		Util:     make([]cluster.Resources, m),
		Pending:  make([]cluster.Resources, m),
		QueueLen: make([]int, m),
		InSystem: make([]int, m),
		State:    make([]cluster.PowerState, m),
	}
	for i := 0; i < m; i++ {
		v.Util[i] = cluster.Resources{rng.Float64(), rng.Float64(), rng.Float64()}
		v.Pending[i] = cluster.Resources{1.5 * rng.Float64(), rng.Float64(), rng.Float64()}
	}
	j := &cluster.Job{Duration: 900, Req: cluster.Resources{0.3, 0.2, 0.1}}

	full := enc.Encode(v, j)

	ranged := enc.NewState()
	// 12 servers in 5+4+3, none aligned to the group size of 4.
	enc.EncodeServersInto(v, ranged, 0, 5)
	enc.EncodeServersInto(v, ranged, 5, 9)
	enc.EncodeServersInto(v, ranged, 9, 12)
	enc.EncodeJobInto(j, ranged)

	for i := range full.v {
		if math.Float64bits(full.v[i]) != math.Float64bits(ranged.v[i]) {
			t.Fatalf("block[%d]: %v vs %v", i, full.v[i], ranged.v[i])
		}
	}
}
