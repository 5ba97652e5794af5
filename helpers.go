package hierdrl

import (
	"hierdrl/internal/cluster"
	"hierdrl/internal/mat"
)

// randomView synthesizes a plausible cluster snapshot for offline ablation
// training.
func randomView(m int, rng *mat.RNG) *cluster.View {
	v := &cluster.View{
		M:        m,
		Util:     make([]cluster.Resources, m),
		Pending:  make([]cluster.Resources, m),
		QueueLen: make([]int, m),
		InSystem: make([]int, m),
		State:    make([]cluster.PowerState, m),
	}
	for i := 0; i < m; i++ {
		cpu := rng.Float64()
		v.Util[i] = cluster.Resources{cpu, cpu * rng.Float64(), cpu * rng.Float64()}
		v.State[i] = cluster.StateActive
	}
	return v
}

// randomJob synthesizes a plausible arriving job for offline ablation
// training.
func randomJob(rng *mat.RNG) *cluster.Job {
	cpu := 0.02 + 0.3*rng.Float64()
	return &cluster.Job{
		ID:       0,
		Duration: 60 + rng.Float64()*7000,
		Req:      cluster.Resources{cpu, cpu * 0.8, cpu * 0.4},
		Server:   -1,
	}
}
