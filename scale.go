package hierdrl

import (
	"fmt"

	"hierdrl/internal/local"
	"hierdrl/internal/lstm"
	"hierdrl/internal/workload"
)

// This file defines the scale-10k operating point: the preset configuration
// and the bounded-memory streaming runner that drive a single M=10,000-server
// run over >= 2M jobs. DESIGN.md §12 has the removed sharded tier's negative
// result on it.

// ScaleJobs is the scale-10k preset's workload length.
const ScaleJobs = 2_000_000

// ScaleM is the scale-10k preset's cluster size.
const ScaleM = 10_000

// ScaleSim returns the scale-10k system: latency-greedy least-loaded global
// allocation (answered from the cluster's incremental load index —
// a per-arrival O(M) scan would dominate the whole run at this M) over the
// paper's RL local power-management tier with a compact per-server LSTM
// predictor. The global DRL agent is deliberately not used here: a 10k-way
// action space is far outside the paper's design envelope, while the local
// tier is exactly its "one independent manager per machine" shape.
//
// The LSTM is downsized (lookback 16, hidden 8, history 64) so 10k per-server
// replicas fit comfortably in memory while still giving the local tier its
// learned inter-arrival forecasts.
func ScaleSim(m int) Config {
	lp := lstm.DefaultPredictorConfig()
	lp.Lookback = 16
	lp.Network.Hidden = 8
	lp.TrainEvery = 64
	lp.BatchSize = 2
	lp.HistoryCap = 64
	return Config{
		Name:          "scale",
		M:             m,
		Seed:          1,
		Alloc:         AllocLeastLoaded,
		DPM:           DPMRL,
		LocalRL:       local.DefaultRLConfig(),
		Predictor:     PredictorLSTM,
		LSTMPredictor: lp,
	}
}

// ScaleStream streams PaperWorkload(n, m) at seed: the jobs
// SyntheticTraceForCluster(n, m, seed) holds, without materializing them.
func ScaleStream(n, m int, seed int64) (*TraceStream, error) {
	return workload.NewSource(PaperWorkload(n, m), seed)
}

// TraceStream is the workload generator ScaleStream returns.
//
// Deprecated: use WorkloadSource, the same type.
type TraceStream = WorkloadSource

// RunSource executes one run fed from any incremental job source (a
// WorkloadSource such as ScaleStream's or a scenario's, or any JobSource)
// in bounded chunks: each chunk is submitted, then the clock is advanced to
// its last arrival before the next chunk is pulled, so neither the workload
// nor the pending queue ever materializes more than chunk+in-flight jobs.
// This is how the scale presets push >= 2M jobs through a 10k-server cluster
// in a few hundred MB.
func RunSource(cfg Config, src JobSource, opts ...SessionOption) (*Result, error) {
	if src == nil {
		return nil, fmt.Errorf("hierdrl: nil job source")
	}
	return runSession(cfg, opts, func(s *Session) error {
		const chunk = 1 << 15
		tr := &Trace{Jobs: make([]Job, 0, chunk)}
		for {
			tr.Jobs = tr.Jobs[:0]
			for len(tr.Jobs) < chunk {
				j, ok := src.Next()
				if !ok {
					break
				}
				tr.Jobs = append(tr.Jobs, j)
			}
			if len(tr.Jobs) == 0 {
				break
			}
			if err := s.SubmitTrace(tr); err != nil {
				return err
			}
			// Chase the chunk: dispatch everything up to its last arrival so
			// the pending queue stays O(chunk) while completions drain behind.
			if err := s.StepUntil(Time(tr.Jobs[len(tr.Jobs)-1].Arrival)); err != nil {
				return err
			}
		}
		if s.Ingested() == 0 {
			return fmt.Errorf("hierdrl: empty job source")
		}
		return nil
	})
}
