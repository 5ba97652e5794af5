package global

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
	"hierdrl/internal/sim"
)

// splitRig drives one agent at the paper's shape (M = 30, K = 3, a 30-15
// encoder, 128 hidden units, 32-sample minibatches) through decisions on
// seeded random cluster views.
type splitRig struct {
	a   *Agent
	cfg Config
	v   *cluster.View
	rng *mat.RNG
	now float64
}

func newSplitRig(t *testing.T, inline bool) *splitRig {
	t.Helper()
	const m = 30
	cfg := DefaultConfig(m)
	cfg.ReplayCap = 256
	a, err := NewAgent(cfg, m, mat.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if inline {
		a.TrainInline()
	}
	a.ObserveCluster(0, 200, 2, 0.5)
	return &splitRig{a: a, cfg: cfg, v: testView(m, nil), rng: mat.NewRNG(13)}
}

func (r *splitRig) decide() {
	r.now += 5
	r.v.Now = sim.Time(r.now)
	for i := range r.v.Util {
		cpu := r.rng.Float64()
		r.v.Util[i] = cluster.Resources{cpu, cpu / 2, cpu / 4}
	}
	r.a.ObserveCluster(r.v.Now, 150+100*r.rng.Float64(), r.rng.Intn(40), r.rng.Float64())
	r.a.Allocate(testJob(0.3*r.rng.Float64(), 600), r.v)
}

// roundTrip replaces the agent by one restored from its encoded State.
func (r *splitRig) roundTrip(t *testing.T) {
	t.Helper()
	var e checkpoint.Codec
	r.a.State(&e)
	b, err := NewAgent(r.cfg, r.a.enc.M(), mat.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	d := checkpoint.NewDec("agent", e.Payload())
	b.State(d)
	if err := d.End(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.a.crew.inline {
		b.TrainInline()
	}
	r.a.Close()
	r.a = b
}

func statePayload(a *Agent) []byte {
	var e checkpoint.Codec
	a.State(&e)
	return e.Payload()
}

func adamPayload(a *Agent) []byte {
	var e checkpoint.Codec
	a.opt.State(&e)
	return e.Payload()
}

// sameAgents fails unless both agents hold the same bits: every weight of
// the online and the target network, both Adam moments and the whole
// encoded State.
func sameAgents(t *testing.T, step int, got, want *Agent) {
	t.Helper()
	for _, nets := range [][2]*QNetwork{{got.net, want.net}, {got.tgt, want.tgt}} {
		gp, wp := nets[0].Params(), nets[1].Params()
		for i := range wp {
			for j := range wp[i].Val {
				if math.Float64bits(gp[i].Val[j]) != math.Float64bits(wp[i].Val[j]) {
					t.Fatalf("step %d: %s[%d] = %v, inline %v", step, wp[i].Name, j, gp[i].Val[j], wp[i].Val[j])
				}
			}
		}
	}
	if !bytes.Equal(adamPayload(got), adamPayload(want)) {
		t.Fatalf("step %d: Adam moments differ from the inline step's", step)
	}
	if !bytes.Equal(statePayload(got), statePayload(want)) {
		t.Fatalf("step %d: encoded State differs from the inline agent's", step)
	}
}

// TestTrainStepSplitMatchesInline runs two agents from the same seed over
// the same decisions: one splits every training step between the caller and
// the helper goroutine, the other runs every task inline. Through a warm
// replay with an episode end, 2·TargetSyncEvery+1 further steps (two target
// syncs) and a State round trip, both hold the same bits after every step,
// and the split agent's steps allocate nothing once warm.
func TestTrainStepSplitMatchesInline(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	split, inline := newSplitRig(t, false), newSplitRig(t, true)
	defer func() { split.a.Close() }()
	for i := 0; i < 3*split.cfg.ReplayCap; i++ {
		split.decide()
		inline.decide()
		if i == split.cfg.ReplayCap {
			split.a.FinishEpisode(sim.Time(split.now + 1))
			inline.a.FinishEpisode(sim.Time(inline.now + 1))
		}
	}
	if split.a.Updates() == 0 {
		t.Fatal("the warm-up took no training step")
	}
	sameAgents(t, 0, split.a, inline.a)

	var helped int64 // tasks the helpers of the split agent and its restored copy ran
	steps := 2*split.cfg.TargetSyncEvery + 1
	for i := 1; i <= steps; i++ {
		split.a.trainStep()
		inline.a.trainStep()
		sameAgents(t, i, split.a, inline.a)
		if i == split.cfg.TargetSyncEvery/2 {
			helped += split.a.crew.helped.Load()
			split.roundTrip(t)
			inline.roundTrip(t)
			sameAgents(t, i, split.a, inline.a)
		}
	}
	if helped += split.a.crew.helped.Load(); helped == 0 {
		t.Error("the helper ran no task: nothing was split")
	}
	if inline.a.crew.helped.Load() != 0 || inline.a.crew.running {
		t.Error("the inline agent started a helper")
	}

	if raceEnabled {
		return
	}
	// AllocsPerRun would run the steps at GOMAXPROCS=1, which is the inline
	// schedule; count the split schedule's allocations directly.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		split.a.trainStep()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d warm split training steps allocated %d times, want 0", steps, n)
	}
}
