package global

import (
	"bytes"
	"math"
	"testing"

	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

// With masking on, the greedy action must never target a server the job
// cannot currently fit on (unless nothing fits).
func TestAgentMaskedGreedyAvoidsFullServers(t *testing.T) {
	m := 4
	cfg := DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	a, err := NewAgent(cfg, m, mat.NewRNG(3))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	a.FreezePolicy() // pure greedy

	v := testView(m, nil)
	// Servers 0..2 are committed beyond capacity for a 0.3-CPU job.
	for i := 0; i < 3; i++ {
		v.Util[i] = cluster.Resources{0.9, 0.2, 0.2}
	}
	a.ObserveCluster(0, 100, 0, 0)
	for trial := 0; trial < 25; trial++ {
		v.Now = sim.Time(float64(trial))
		if got := a.Allocate(testJob(0.3, 300), v); got != 3 {
			t.Fatalf("masked greedy chose full server %d", got)
		}
	}
}

// When no server fits, the fallback must pick the least committed one.
func TestAgentMaskedFallbackLeastCommitted(t *testing.T) {
	m := 4
	cfg := DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	a, err := NewAgent(cfg, m, mat.NewRNG(4))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	a.FreezePolicy()

	v := testView(m, nil)
	v.Util[0] = cluster.Resources{0.95, 0.2, 0.2}
	v.Util[1] = cluster.Resources{0.90, 0.2, 0.2}
	v.Util[2] = cluster.Resources{0.85, 0.2, 0.2}
	v.Util[3] = cluster.Resources{0.80, 0.2, 0.2}
	a.ObserveCluster(0, 100, 0, 0)
	// A 0.5-CPU job fits nowhere; least committed is server 3.
	if got := a.Allocate(testJob(0.5, 300), v); got != 3 {
		t.Fatalf("fallback chose %d want 3 (least committed)", got)
	}
}

// Unmasked configuration must follow the raw argmax even onto full servers
// (the ablation path).
func TestAgentUnmaskedFollowsArgmax(t *testing.T) {
	m := 4
	cfg := DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	cfg.MaskUnfit = false
	a, err := NewAgent(cfg, m, mat.NewRNG(5))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	a.FreezePolicy()

	v := testView(m, []float64{0.9, 0.9, 0.9, 0.9})
	a.ObserveCluster(0, 100, 0, 0)
	v.Now = 1
	j := testJob(0.3, 300)
	s := a.EncoderRef().Encode(v, j)
	want, _ := a.Network().Best(s)
	if got := a.Allocate(j, v); got != want {
		t.Fatalf("unmasked greedy chose %d want raw argmax %d", got, want)
	}
}

// A behaviour policy must drive at least ~80% of warmup actions, with the
// remainder uniform.
func TestAgentBehaviorPolicyMix(t *testing.T) {
	m := 4
	cfg := DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	a, err := NewAgent(cfg, m, mat.NewRNG(6))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	a.SetBehavior(func(*cluster.Job, *cluster.View) int { return 2 })

	v := testView(m, nil)
	a.ObserveCluster(0, 100, 0, 0)
	const n = 500
	for i := 0; i < n; i++ {
		v.Now = sim.Time(float64(i))
		a.Allocate(testJob(0.2, 300), v)
	}
	counts := a.ActionCounts()
	if counts[2] < int64(0.7*n) {
		t.Fatalf("behaviour action chosen only %d/%d times", counts[2], n)
	}
	others := counts[0] + counts[1] + counts[3]
	if others == 0 {
		t.Fatal("uniform mix never fired")
	}
	// Clearing the behaviour restores learned control.
	a.SetBehavior(nil)
	a.FreezePolicy()
	v.Now = sim.Time(n)
	if got := a.Allocate(testJob(0.2, 300), v); got < 0 || got >= m {
		t.Fatalf("post-behaviour action %d out of range", got)
	}
}

func TestAgentBehaviorPolicyValidation(t *testing.T) {
	m := 4
	cfg := DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	a, err := NewAgent(cfg, m, mat.NewRNG(7))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	a.SetBehavior(func(*cluster.Job, *cluster.View) int { return 99 })
	v := testView(m, nil)
	a.ObserveCluster(0, 100, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid behaviour action must panic")
		}
	}()
	for i := 0; i < 50; i++ { // the 20% mix may delay the behaviour call
		v.Now = sim.Time(float64(i))
		a.Allocate(testJob(0.2, 300), v)
	}
}

func TestAgentActionCountsAccumulate(t *testing.T) {
	a := newTestAgent(t, 4)
	v := testView(4, nil)
	a.ObserveCluster(0, 100, 0, 0)
	for i := 0; i < 12; i++ {
		v.Now = sim.Time(float64(i))
		a.Allocate(testJob(0.2, 300), v)
	}
	var total int64
	for _, c := range a.ActionCounts() {
		total += c
	}
	if total != 12 {
		t.Fatalf("action counts sum %d want 12", total)
	}
	// Returned slice must be a copy.
	a.ActionCounts()[0] = 999
	var again int64
	for _, c := range a.ActionCounts() {
		again += c
	}
	if again != 12 {
		t.Fatal("ActionCounts leaked internal state")
	}
}

// Dueling identity: Q values must satisfy mean(Q over a group's actions) ==
// V head output (since advantages are mean-centered), which we verify
// indirectly: adding a constant to all advantage weights' bias must shift
// every Q in the group equally.
func TestDuelingMeanCenteredAdvantages(t *testing.T) {
	enc, net := qnetFixture(t, 4, true, true)
	s := enc.Encode(testView(4, []float64{0.2, 0.4, 0.6, 0.8}), testJob(0.3, 600))
	q1 := net.QValues(s)
	// Shift all advantage biases of the shared head by +5; V bias untouched.
	head := net.subs[0]
	out := head.Layers[len(head.Layers)-1]
	for o := 1; o < out.Out; o++ {
		out.B[o] += 5
	}
	q2 := net.QValues(s)
	for i := range q1 {
		if diff := q2[i] - q1[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("uniform advantage shift changed Q[%d] by %v (mean-centering broken)", i, diff)
		}
	}
}

// Save/Load round trip: a fresh agent restored from a trained agent's
// weights must produce identical Q values.
func TestAgentWeightsRoundTrip(t *testing.T) {
	a := newTestAgent(t, 4)
	v := testView(4, []float64{0.1, 0.5, 0.3, 0.7})
	a.ObserveCluster(0, 100, 1, 0)
	for i := 0; i < 40; i++ { // a few training steps so weights moved
		v.Now = sim.Time(float64(i))
		a.Allocate(testJob(0.2, 300), v)
	}

	var buf bytes.Buffer
	if err := a.SaveWeights(&buf); err != nil {
		t.Fatalf("SaveWeights: %v", err)
	}
	b := newTestAgent(t, 4)
	if err := b.LoadWeights(&buf); err != nil {
		t.Fatalf("LoadWeights: %v", err)
	}
	s := a.EncoderRef().Encode(v, testJob(0.2, 300))
	qa := a.Network().QValues(s)
	qb := b.Network().QValues(s)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("Q[%d] differs after restore: %v vs %v", i, qa[i], qb[i])
		}
	}

	// Mismatched architecture must be rejected.
	var buf2 bytes.Buffer
	if err := a.SaveWeights(&buf2); err != nil {
		t.Fatalf("SaveWeights: %v", err)
	}
	cfg := DefaultConfig(4)
	cfg.AEHidden = []int{6, 3}
	cfg.SubQHidden = 16
	c, err := NewAgent(cfg, 4, mat.NewRNG(8))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	if err := c.LoadWeights(&buf2); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}

// coldAgent returns a small agent that has made no decision yet and the
// function that runs one decision epoch on it.
func coldAgent(t *testing.T) (a *Agent, cfg Config, epoch func()) {
	t.Helper()
	m := 6
	cfg = DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	cfg.ReplayCap = 64 // small ring so the slot pool wraps (and warms) fast
	cfg.MiniBatch = 8
	cfg.TrainEvery = 8
	a, err := NewAgent(cfg, m, mat.NewRNG(5))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	// Shrink the AE sample reservoir so its append-growth phase (which
	// legitimately allocates) finishes during warmup and the steady-state
	// in-place replacement path is what gets measured.
	a.aeSampleCap = 16
	v := testView(m, []float64{0.1, 0.9, 0.3, 0.0, 0.5, 0.2})
	j := testJob(0.2, 300)
	a.ObserveCluster(0, 200, 2, 0.5)
	now := 0.0
	epoch = func() {
		now += 5
		v.Now = sim.Time(now)
		a.ObserveCluster(v.Now, 210, 3, 0.4)
		a.Allocate(j, v)
	}
	return a, cfg, epoch
}

// warmAgent is coldAgent driven past every one-time allocation: the replay
// ring wrapped twice, the AE sample reservoir in its replace-in-place phase,
// several training rounds done.
func warmAgent(t *testing.T) (a *Agent, cfg Config, epoch func()) {
	t.Helper()
	a, cfg, epoch = coldAgent(t)
	for i := 0; i < 3*cfg.ReplayCap; i++ {
		epoch()
	}
	return a, cfg, epoch
}

// One warm decision epoch — encode, transition close into the pooled replay
// slot, Q inference, action selection, reward-integrator reset — must not
// allocate, and neither may the training step every TrainEvery-th epoch runs
// (TestTrainStepZeroAlloc pins that one on its own).
func TestAllocateEpochZeroAllocOnceWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under -race")
	}
	_, cfg, epoch := warmAgent(t)

	// Non-training epochs: exactly zero. AllocsPerRun(1, ...) runs epoch
	// twice (warmup + measured); across TrainEvery probes at least one
	// measured run is training-free. The reservoir replacement, replay
	// write, inference and selection paths must all be allocation-free, so
	// the *minimum* observed is 0.
	min := math.Inf(1)
	for k := 0; k < cfg.TrainEvery; k++ {
		if avg := testing.AllocsPerRun(1, epoch); avg < min {
			min = avg
		}
	}
	if min != 0 {
		t.Fatalf("warm non-training Allocate epoch allocates %v, want 0", min)
	}
	// Averaged over full train cycles it is zero as well (the whole-epoch
	// figure BenchmarkAllocateEpoch reports).
	if avg := testing.AllocsPerRun(8*cfg.TrainEvery, epoch); avg != 0 {
		t.Fatalf("amortized Allocate epoch allocates %v, want 0", avg)
	}

	// The ring's first fill: storing into a never-used slot allocates exactly
	// its one state block; storing into a slot that has held a transition
	// allocates nothing.
	a, cfg, epoch := coldAgent(t)
	epoch() // opens the pending decision storeTransition closes
	store := func() { a.storeTransition(-1, 5, false) }
	if avg := testing.AllocsPerRun(cfg.ReplayCap/2-1, store); avg != 1 {
		t.Fatalf("storing into a never-used slot allocates %v, want 1 (the state block)", avg)
	}
	for a.replay.Len() < cfg.ReplayCap {
		store()
	}
	if avg := testing.AllocsPerRun(cfg.ReplayCap, store); avg != 0 {
		t.Fatalf("storing into a used slot allocates %v, want 0", avg)
	}
}

// A warm training step — minibatch draw, batched target max-Q, batched
// forward and backward through encoder and Sub-Q head on saved buffers,
// clipped Adam update, target sync — must not allocate: the backprop state
// lives on tapes and in the workspace, not in closures.
func TestTrainStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pinning is meaningless under -race")
	}
	a, cfg, _ := warmAgent(t)
	// Enough runs to cross a target-network sync.
	if avg := testing.AllocsPerRun(2*cfg.TargetSyncEvery, a.trainStep); avg != 0 {
		t.Fatalf("warm trainStep allocates %v per run, want 0", avg)
	}
}

// The AE sample reservoir keeps growing until its cap; make sure the
// replacement path (the steady state) really overwrites in place.
func TestAESampleReservoirReplacesInPlace(t *testing.T) {
	a := newTestAgent(t, 4)
	v := testView(4, []float64{0.1, 0.2, 0.3, 0.4})
	a.ObserveCluster(0, 200, 2, 0)
	for i := 0; i < 10; i++ {
		v.Now = sim.Time(float64(i+1) * 10)
		a.ObserveCluster(v.Now, 200, 2, 0)
		a.Allocate(testJob(0.2, 300), v)
	}
	if len(a.aeSamples) == 0 {
		t.Fatal("no AE samples buffered")
	}
	for _, s := range a.aeSamples {
		if len(s) != a.enc.GroupDim() {
			t.Fatalf("sample length %d want %d", len(s), a.enc.GroupDim())
		}
	}
}
