package metrics

import (
	"hierdrl/internal/checkpoint"
)

// State implements checkpoint.Stateful: the latency and wait sums, the
// checkpoint series and the quantile histograms. The completion count and the
// domain outages are the cluster's and the retry-path fault tallies the
// session's; the cluster reference and the callbacks are wiring,
// re-established at restore; checkpointEvery is construction config.
func (c *Collector) State(cd *checkpoint.Codec) {
	cd.F64(&c.accLatency)
	n := cd.Count(len(c.checkpoints), 32) // 4 fixed 8-byte fields per checkpoint
	if cd.Decoding() {
		c.checkpoints = append(c.checkpoints[:0], make([]Checkpoint, n)...)
	}
	for i := range c.checkpoints {
		cp := &c.checkpoints[i]
		cd.Int(&cp.Jobs)
		cd.F64((*float64)(&cp.Time))
		cd.F64(&cp.AccLatencySec)
		cd.F64(&cp.EnergykWh)
	}
	cd.F64(&c.waitSum)
	c.Sketches().State(cd)
}

var _ checkpoint.Stateful = (*Collector)(nil)
