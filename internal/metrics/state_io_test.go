package metrics

import (
	"bytes"
	"math"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
)

// TestCollectorStateRoundTrip: the accumulated per-job samples and the
// checkpoint series restore verbatim, and the restored collector keeps
// checkpointing on the original cadence (its completion count is the
// restored cluster's).
func TestCollectorStateRoundTrip(t *testing.T) {
	sm, c := buildCluster(t, 2)
	col1 := NewCollector(c, 2)
	c.OnJobDone = col1.JobDone
	for i := 0; i < 5; i++ {
		j := &cluster.Job{
			ID: i, Arrival: sim.Time(i * 10), Duration: 30,
			Req: cluster.Resources{0.2, 0.1, 0.1}, Server: -1,
		}
		i := i
		sm.Schedule(j.Arrival, func() { c.Submit(j, i%2) })
	}
	sm.RunAll(1000)
	if col1.Completed() != 5 || len(col1.Checkpoints()) != 2 {
		t.Fatalf("precondition: %d completed, %d checkpoints", col1.Completed(), len(col1.Checkpoints()))
	}

	w := checkpoint.NewWriter(0)
	c.State(w.Section("cluster"))
	col1.State(w.Section("metrics"))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	sm2, c2 := buildCluster(t, 2)
	col2 := NewCollector(c2, 2)
	c2.OnJobDone = col2.JobDone
	seq, prioSeq, nFired := sm.Counters()
	sm2.RestoreBegin(sm.Now(), seq, prioSeq, nFired)
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for _, sec := range []struct {
		name string
		v    checkpoint.Stateful
	}{{"cluster", c2}, {"metrics", col2}} {
		d, err := rd.Section(sec.name)
		if err != nil {
			t.Fatalf("Section: %v", err)
		}
		sec.v.State(d)
		if err := d.End(); err != nil {
			t.Fatalf("State %s: %v", sec.name, err)
		}
	}

	if col2.Completed() != col1.Completed() ||
		math.Float64bits(col2.AccLatency()) != math.Float64bits(col1.AccLatency()) {
		t.Fatalf("accumulators diverge: (%d,%v) vs (%d,%v)",
			col2.Completed(), col2.AccLatency(), col1.Completed(), col1.AccLatency())
	}
	cps1, cps2 := col1.Checkpoints(), col2.Checkpoints()
	if len(cps1) != len(cps2) {
		t.Fatalf("checkpoint series length %d vs %d", len(cps2), len(cps1))
	}
	for i := range cps1 {
		if cps1[i] != cps2[i] {
			t.Fatalf("checkpoint %d diverges: %+v vs %+v", i, cps2[i], cps1[i])
		}
	}

	// The restored collector continues the per-2-completions cadence: one
	// more completion (odd total) must not checkpoint, the next must.
	j := &cluster.Job{ID: 90, Arrival: 0, Duration: 30, Req: cluster.Resources{0.2, 0.1, 0.1}, Server: -1}
	sm2.Schedule(sm2.Now(), func() { c2.Submit(j, 0) })
	j2 := &cluster.Job{ID: 91, Arrival: 0, Duration: 30, Req: cluster.Resources{0.2, 0.1, 0.1}, Server: -1}
	sm2.Schedule(sm2.Now(), func() { c2.Submit(j2, 1) })
	sm2.RunAll(1000)
	if col2.Completed() != 7 || len(col2.Checkpoints()) != 3 {
		t.Fatalf("post-restore cadence: %d completed, %d checkpoints", col2.Completed(), len(col2.Checkpoints()))
	}
}
