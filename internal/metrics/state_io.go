package metrics

import (
	"hierdrl/internal/checkpoint"
	"hierdrl/internal/telemetry"
)

// State implements checkpoint.Stateful: per-job latencies and the checkpoint
// series. The completion count and the domain outages are the cluster's and
// the retry-path fault tallies the session's; the cluster reference and the callbacks are wiring,
// re-established at restore; checkpointEvery is construction config.
func (c *Collector) State(cd *checkpoint.Codec) {
	cd.F64(&c.accLatency)
	cd.F64s(&c.latencies)
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
	// Telemetry extension (container Version 3): sketch-only flag, the wait
	// sum (every run's since Version 7, which dropped the per-job waits), and
	// the live quantile sketches. The snapshot is authoritative for the
	// collection mode and the sketch contents — a run checkpointed with
	// sketches resumes with them regardless of which options the restoring
	// caller re-attached (a restore without them would silently lose the
	// percentile history).
	cd.Bool(&c.sketchOnly)
	cd.F64(&c.waitSum)
	hasSk := c.sk != nil
	cd.Bool(&hasSk)
	if hasSk {
		if c.sk == nil {
			c.sk = new(telemetry.SketchSet)
		}
		c.sk.State(cd)
	} else if c.sketchOnly {
		cd.Fail(checkpoint.ErrCorrupt, "sketch-only collection without sketches")
	}
}

var _ checkpoint.Stateful = (*Collector)(nil)
