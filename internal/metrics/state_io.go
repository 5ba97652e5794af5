package metrics

import (
	"hierdrl/internal/checkpoint"
	"hierdrl/internal/telemetry"
)

// State implements checkpoint.Stateful: the latency and wait sums, the
// checkpoint series and the quantile histograms. The completion count and the
// domain outages are the cluster's and the retry-path fault tallies the
// session's; the cluster reference and the callbacks are wiring,
// re-established at restore; checkpointEvery is construction config, and so
// is each series point's job count, (i+1)·checkpointEvery.
//
// Decoding runs after the cluster's: a series whose length is not the
// cluster's completions over the interval, or histograms whose counts are
// not those completions, contradict it and are refused.
func (c *Collector) State(cd *checkpoint.Codec) {
	cd.F64(&c.accLatency)
	n := cd.Count(len(c.checkpoints), 24) // 3 fixed 8-byte fields per checkpoint
	if cd.Decoding() {
		want := 0
		if c.checkpointEvery > 0 {
			want = c.Completed() / c.checkpointEvery
		}
		if n != want {
			cd.Fail(checkpoint.ErrCorrupt, "%d series points at %d completions, every %d", n, c.Completed(), c.checkpointEvery)
			return
		}
		c.checkpoints = append(c.checkpoints[:0], make([]Checkpoint, n)...)
	}
	for i := range c.checkpoints {
		cp := &c.checkpoints[i]
		cp.Jobs = (i + 1) * c.checkpointEvery
		cd.F64((*float64)(&cp.Time))
		cd.F64(&cp.AccLatencySec)
		cd.F64(&cp.EnergykWh)
	}
	cd.F64(&c.waitSum)
	sk := c.Sketches()
	sk.State(cd)
	if !cd.Decoding() || cd.Err() != nil {
		return
	}
	// Each class count is clamped to done+1, so that counts near MaxInt64
	// cannot wrap their sum around to done.
	done, lat := int64(c.Completed()), int64(0)
	for i := range telemetry.NumJobClasses {
		lat += min(sk.ClassLatency(i).Count(), done+1)
	}
	if lat != done || sk.Wait().Count() != done {
		cd.Fail(checkpoint.ErrCorrupt, "latency histograms hold %d, %d and %d samples and the wait histogram %d at %d completions",
			sk.ClassLatency(0).Count(), sk.ClassLatency(1).Count(), sk.ClassLatency(2).Count(), sk.Wait().Count(), done)
	}
}

var _ checkpoint.Stateful = (*Collector)(nil)
