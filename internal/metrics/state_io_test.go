package metrics

import (
	"bytes"
	"math"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/cluster"
	"hierdrl/internal/sim"
)

// TestCollectorStateRoundTrip: the accumulated per-job samples, checkpoint
// series, and fault tallies restore verbatim, and the restored collector
// keeps checkpointing on the original cadence (completed counter survives).
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
	col1.SetFaultTallies(3, 4, 2, 1, 5, 17.5)
	if col1.Completed() != 5 || len(col1.Checkpoints()) != 2 {
		t.Fatalf("precondition: %d completed, %d checkpoints", col1.Completed(), len(col1.Checkpoints()))
	}

	w := checkpoint.NewWriter(0)
	checkpoint.Save(w.Section("metrics"), col1)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	sm2, c2 := buildCluster(t, 2)
	col2 := NewCollector(c2, 2)
	c2.OnJobDone = col2.JobDone
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := rd.Section("metrics")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if err := checkpoint.Restore(d, col2); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
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
	if col2.interrupted != 3 || col2.migrated != 4 || col2.retried != 2 || col2.lost != 1 ||
		col2.domOutages != 5 || col2.lostWork != 17.5 {
		t.Fatalf("fault tallies diverge: %d/%d/%d/%d/%d/%v", col2.interrupted, col2.migrated,
			col2.retried, col2.lost, col2.domOutages, col2.lostWork)
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
