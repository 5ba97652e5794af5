package global

import (
	"testing"

	"hierdrl/internal/mat"
	"hierdrl/internal/nn"
)

// forEachKernelFamily runs f as one subtest per mat kernel family this host
// supports (avx512, avx2, portable): the batched == per-sample contracts must
// hold on each, not only on the one the CPU selects.
func forEachKernelFamily(t *testing.T, f func(t *testing.T)) {
	mat.ForEachKernelFamily(func(family string) { t.Run(family, f) })
}

// refQValues replicates the seed's per-sample QValues path: remote features
// via per-group encoder inference, one per-head forward, dueling combine.
func refQValues(n *QNetwork, s State) mat.Vec {
	remote := make([]mat.Vec, n.enc.K())
	for k := 0; k < n.enc.K(); k++ {
		remote[k] = n.remoteFeature(k, s.Group(k))
	}
	out := mat.NewVec(n.enc.M())
	for k := 0; k < n.enc.K(); k++ {
		q := duel(n.subFor(k).Infer(n.headInput(k, s, remote)))
		copy(out[k*n.enc.GroupSize():(k+1)*n.enc.GroupSize()], q)
	}
	return out
}

func randState(enc *Encoder, rng *mat.RNG) State {
	s := enc.NewState()
	for i := range s.Groups() {
		s.v[i] = rng.Float64() * 2
	}
	job := s.Job()
	for i := range job {
		job[i] = rng.Float64()
	}
	return s
}

func qnetVariants() []Config {
	base := DefaultConfig(12)
	base.K = 3
	base.AEHidden = []int{8, 4}
	base.SubQHidden = 16
	variants := make([]Config, 0, 4)
	for _, share := range []bool{true, false} {
		for _, useAE := range []bool{true, false} {
			cfg := base
			cfg.ShareWeights = share
			cfg.UseAutoencoder = useAE
			variants = append(variants, cfg)
		}
	}
	return variants
}

func TestQValuesMatchesPerSampleReference(t *testing.T) {
	forEachKernelFamily(t, testQValuesMatchesPerSampleReference)
}

func testQValuesMatchesPerSampleReference(t *testing.T) {
	for _, cfg := range qnetVariants() {
		enc, err := NewEncoder(12, cfg.K, cfg.DurationNormSec)
		if err != nil {
			t.Fatal(err)
		}
		net := NewQNetwork(enc, cfg, mat.NewRNG(3))
		rng := mat.NewRNG(17)
		for trial := 0; trial < 10; trial++ {
			s := randState(enc, rng)
			got := net.QValues(s)
			want := refQValues(net, s)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("share=%v ae=%v trial=%d: QValues[%d]=%v want %v",
						cfg.ShareWeights, cfg.UseAutoencoder, trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMaxQBatchMatchesBest(t *testing.T) { forEachKernelFamily(t, testMaxQBatchMatchesBest) }

func testMaxQBatchMatchesBest(t *testing.T) {
	for _, cfg := range qnetVariants() {
		enc, err := NewEncoder(12, cfg.K, cfg.DurationNormSec)
		if err != nil {
			t.Fatal(err)
		}
		net := NewQNetwork(enc, cfg, mat.NewRNG(5))
		rng := mat.NewRNG(23)
		states := make([]State, 9)
		for i := range states {
			states[i] = randState(enc, rng)
		}
		vals := net.MaxQBatch(states)
		for i, s := range states {
			_, want := net.Best(s)
			if vals[i] != want {
				t.Fatalf("share=%v ae=%v state %d: MaxQBatch=%v Best=%v",
					cfg.ShareWeights, cfg.UseAutoencoder, i, vals[i], want)
			}
		}
		if len(net.MaxQBatch(nil)) != 0 {
			t.Fatal("MaxQBatch(nil) not empty")
		}
	}
}

// refTrainBatch replicates the seed's per-sample TrainBatch loop.
func refTrainBatch(n *QNetwork, batch []TrainItem, opt *nn.Adam) float64 {
	if len(batch) == 0 {
		return 0
	}
	params := n.Params()
	nn.ZeroGrads(params)
	scale := 1 / float64(len(batch))
	var total float64
	for _, item := range batch {
		total += n.accumulate(item, scale)
	}
	if n.cfg.ClipNorm > 0 {
		nn.ClipGrads(params, n.cfg.ClipNorm)
	}
	opt.Step(params)
	return total / float64(len(batch))
}

func TestTrainBatchMatchesPerSampleReference(t *testing.T) {
	forEachKernelFamily(t, testTrainBatchMatchesPerSampleReference)
}

func testTrainBatchMatchesPerSampleReference(t *testing.T) {
	for _, cfg := range qnetVariants() {
		for _, B := range []int{1, 2, 5, 16} {
			enc, err := NewEncoder(12, cfg.K, cfg.DurationNormSec)
			if err != nil {
				t.Fatal(err)
			}
			netA := NewQNetwork(enc, cfg, mat.NewRNG(9))
			netB := NewQNetwork(enc, cfg, mat.NewRNG(9))
			optA := nn.NewAdam(1e-3)
			optB := nn.NewAdam(1e-3)
			rng := mat.NewRNG(int64(31 + B))
			for step := 0; step < 3; step++ {
				batch := make([]TrainItem, B)
				for b := range batch {
					batch[b] = TrainItem{
						S:      randState(enc, rng),
						Action: rng.Intn(12),
						Target: rng.Normal(0, 1),
					}
				}
				lA := netA.TrainBatch(batch, optA)
				lB := refTrainBatch(netB, batch, optB)
				if lA != lB {
					t.Fatalf("share=%v ae=%v B=%d step=%d: loss %v != reference %v",
						cfg.ShareWeights, cfg.UseAutoencoder, B, step, lA, lB)
				}
			}
			psA, psB := netA.Params(), netB.Params()
			for i := range psA {
				for j := range psA[i].Val {
					if psA[i].Val[j] != psB[i].Val[j] {
						t.Fatalf("share=%v ae=%v B=%d: weights diverge at %s[%d]",
							cfg.ShareWeights, cfg.UseAutoencoder, B, psA[i].Name, j)
					}
				}
			}
		}
	}
}

// Steady-state inference allocates nothing beyond what it returns: the Into
// forms with a retained destination are allocation-free, and QValues /
// MaxQBatch (what BenchmarkQNetworkInference and BenchmarkQNetInferBatch run)
// allocate exactly their result.
func TestQValuesIntoSteadyStateZeroAlloc(t *testing.T) {
	cfg := DefaultConfig(12)
	cfg.K = 3
	cfg.AEHidden = []int{8, 4}
	cfg.SubQHidden = 16
	enc, err := NewEncoder(12, cfg.K, cfg.DurationNormSec)
	if err != nil {
		t.Fatal(err)
	}
	net := NewQNetwork(enc, cfg, mat.NewRNG(2))
	rng := mat.NewRNG(4)
	s := randState(enc, rng)
	out := mat.NewVec(enc.M())
	states := make([]State, 8)
	for i := range states {
		states[i] = randState(enc, rng)
	}
	vals := make([]float64, len(states))
	for _, c := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"QValuesInto", func() { net.QValuesInto(s, out) }, 0},
		{"QValues", func() { net.QValues(s) }, 1},
		{"MaxQBatchInto", func() { net.MaxQBatchInto(states, vals) }, 0},
		{"MaxQBatch", func() { net.MaxQBatch(states) }, 1},
	} {
		c.fn() // prime the arena
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != c.want {
			t.Errorf("steady-state %s allocates %v per run, want %v", c.name, allocs, c.want)
		}
	}
}
