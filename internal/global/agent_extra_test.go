package global

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
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
	s := a.enc.Encode(v, j)
	want, _ := a.net.Best(s)
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
	counts := a.actionCounts
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
	for _, c := range a.actionCounts {
		total += c
	}
	if total != 12 {
		t.Fatalf("action counts sum %d want 12", total)
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

// coldAgent returns a small agent with a replayCap-slot ring that has made
// no decision yet and the function that runs one decision epoch on it.
func coldAgent(t *testing.T, replayCap int) (a *Agent, cfg Config, epoch func()) {
	t.Helper()
	m := 6
	cfg = DefaultConfig(m)
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	cfg.ReplayCap = replayCap
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
	a, cfg, epoch = coldAgent(t, 64) // small ring so the slot pool wraps (and warms) fast
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
	warm, cfg, epoch := warmAgent(t)

	// Non-training epochs: exactly zero. AllocsPerRun(1, ...) runs epoch
	// twice (warmup + measured); across TrainEvery probes at least one
	// measured run is training-free. The reservoir replacement, replay
	// write, inference and selection paths must all be allocation-free, so
	// the *minimum* observed is 0.
	fewest := math.Inf(1)
	for k := 0; k < cfg.TrainEvery; k++ {
		if avg := testing.AllocsPerRun(1, epoch); avg < fewest {
			fewest = avg
		}
	}
	if fewest != 0 {
		t.Fatalf("warm non-training Allocate epoch allocates %v, want 0", fewest)
	}
	// Averaged over full train cycles it is zero as well (the whole-epoch
	// figure BenchmarkAllocateEpoch reports).
	if avg := testing.AllocsPerRun(8*cfg.TrainEvery, epoch); avg != 0 {
		t.Fatalf("amortized Allocate epoch allocates %v, want 0", avg)
	}
	warm.Close() // its parked training helper would wake in the windows below

	// The ring's first fill: N stores into never-used slots, from an empty
	// ring, allocate exactly ceil(N/blockSlots) times, one state block per
	// blockSlots slots (the last block is short); stores into slots that have
	// held a transition allocate nothing. AllocsPerRun would average the
	// blocks away, so each window's mallocs are counted directly, with the GC
	// pacer off and a forced cycle first, as in
	// TestTrainStepSplitMatchesInline. The count is process-wide, and the
	// runtime's own allocations can still land in a window (a new M when
	// ReadMemStats restarts the world, a mark worker's sudog, seen in a
	// MemProfile diff of a failing run); they only ever add, so each pin
	// takes the least count of three fresh agents.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const replayCap = 2*blockSlots + blockSlots/2
	for _, n := range []int{1, blockSlots, blockSlots + 1, replayCap} {
		fresh, used := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			a, _, epoch := coldAgent(t, replayCap)
			epoch() // opens the pending decision storeTransition closes
			fresh = min(fresh, storeMallocs(a, n))
			if n == replayCap {
				used = min(used, storeMallocs(a, replayCap))
			}
		}
		if want := uint64((n + blockSlots - 1) / blockSlots); fresh != want {
			t.Errorf("%d stores into never-used slots allocated %d times, want %d (one per state block)", n, fresh, want)
		}
		if n == replayCap && used != 0 {
			t.Errorf("%d stores into used slots allocated %d times, want 0", replayCap, used)
		}
	}
}

// storeMallocs runs n transition stores on a and returns the heap
// allocations the process made meanwhile.
func storeMallocs(a *Agent, n int) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		a.storeTransition(-1, 5, false)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTransitionIsPointerFree walks Transition by reflection: a pointer,
// slice, map, interface, string, func or channel anywhere in it would make
// every slot of the replay ring memory the GC has to scan.
func TestTransitionIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.String, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("Transition", reflect.TypeOf(Transition{}))
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

// The AE sample reservoir fills to its cap, then replaces samples in place,
// one RNG draw per buffered group. An agent that has dropped its samples —
// after PretrainAutoencoder, or restored — keeps the same fill count and
// makes the same draws, so every later decision matches one that kept them.
func TestAESampleReservoirReplacesInPlace(t *testing.T) {
	keep, drop := newTestAgent(t, 4), newTestAgent(t, 4)
	keep.aeSampleCap, drop.aeSampleCap = 8, 8
	drop.aeSamples, drop.aeDropped = nil, true
	v := testView(4, []float64{0.1, 0.2, 0.3, 0.4})
	keep.ObserveCluster(0, 200, 2, 0)
	drop.ObserveCluster(0, 200, 2, 0)
	var first []*float64
	for i := 0; i < 10; i++ {
		v.Now = sim.Time(float64(i+1) * 10)
		for _, a := range []*Agent{keep, drop} {
			a.ObserveCluster(v.Now, 200, 2, 0)
			if got, want := a.Allocate(testJob(0.2, 300), v), keep.pendingAction; got != want {
				t.Fatalf("decision %d: the agent without samples chose %d, the one with them %d", i, got, want)
			}
		}
		if want := min((i+1)*keep.enc.K(), 8); keep.aeFill != want || drop.aeFill != want {
			t.Fatalf("decision %d: fill counts %d and %d, want %d", i, keep.aeFill, drop.aeFill, want)
		}
		if first == nil && len(keep.aeSamples) == keep.aeSampleCap {
			for _, s := range keep.aeSamples {
				first = append(first, &s[0])
			}
		}
	}
	if len(keep.aeSamples) != keep.aeSampleCap || len(drop.aeSamples) != 0 || first == nil {
		t.Fatalf("%d and %d samples kept, want %d and 0", len(keep.aeSamples), len(drop.aeSamples), keep.aeSampleCap)
	}
	for i, s := range keep.aeSamples {
		if len(s) != keep.enc.GroupDim() || &s[0] != first[i] {
			t.Fatalf("sample %d: length %d (want %d), or replaced by a new vector", i, len(s), keep.enc.GroupDim())
		}
	}
	if keep.rng.Int63() != drop.rng.Int63() {
		t.Fatal("the agent without samples made different RNG draws")
	}
	keep.PretrainAutoencoder(1)
	if keep.aeSamples != nil || !keep.aeDropped || keep.aeFill != keep.aeSampleCap {
		t.Fatalf("after pretraining: %d samples kept, dropped %v, fill %d", len(keep.aeSamples), keep.aeDropped, keep.aeFill)
	}
}
