package metrics

import (
	"hierdrl/internal/checkpoint"
	"hierdrl/internal/telemetry"
)

// State implements checkpoint.Stateful: per-job samples, the checkpoint
// series, and the fault tallies. The cluster reference and the callbacks are
// wiring, re-established at restore; checkpointEvery is construction config.
func (c *Collector) State(cd *checkpoint.Codec) {
	cd.F64(&c.accLatency)
	cd.F64s(&c.waits)
	cd.F64s(&c.latencies)
	cd.Int(&c.completed)
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
	cd.I64(&c.interrupted)
	cd.I64(&c.retried)
	cd.I64(&c.lost)
	cd.F64(&c.lostWork)
	cd.I64(&c.migrated)
	cd.I64(&c.domOutages)
	// Telemetry extension (container Version 3): sketch-only flag, the
	// incrementally kept wait sum, and the live quantile sketches. The
	// snapshot is authoritative for the collection mode and the sketch
	// contents — a run checkpointed with sketches resumes with them regardless
	// of which options the restoring caller re-attached (a restore without
	// them would silently lose the percentile history).
	cd.Bool(&c.sketchOnly)
	cd.F64(&c.waitSum)
	hasSk := c.sk != nil
	cd.Bool(&hasSk)
	if hasSk {
		if c.sk == nil {
			c.sk = telemetry.NewSketchSet()
		}
		c.sk.State(cd)
	}
}

var _ checkpoint.Stateful = (*Collector)(nil)
