package cluster

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hierdrl/internal/checkpoint"
	"hierdrl/internal/fault"
	"hierdrl/internal/sim"
)

// statelessDPM is a checkpoint-aware fixed-timeout stub: all its behavior is
// construction config, so it round-trips as a Stateless component.
type statelessDPM struct{ timeout float64 }

func (d statelessDPM) OnIdle(sim.Time, *Server) float64        { return d.timeout }
func (d statelessDPM) OnArrival(sim.Time, *Server, PowerState) {}
func (d statelessDPM) Observe(sim.Time, float64, int)          {}
func (d statelessDPM) CheckpointStateless()                    {}

// doneRec is one OnJobDone observation, captured bit-exactly.
type doneRec struct {
	id   int
	at   uint64
	fin  uint64
	srv  int
	wait uint64
}

func recordDones(c *Cluster, out *[]doneRec) {
	c.OnJobDone = func(t sim.Time, j *Job) {
		*out = append(*out, doneRec{
			id:   j.ID,
			at:   math.Float64bits(float64(t)),
			fin:  math.Float64bits(float64(j.Finished)),
			srv:  j.Server,
			wait: math.Float64bits(float64(j.Started - j.Arrival)),
		})
	}
}

// finals collects the cluster-level aggregate observables whose bits must
// survive a checkpoint/restore round trip.
type finals struct {
	completed int64
	fired     int64
	energy    uint64
	power     uint64
	reli      uint64
	jobsInSys int
	down      int
	fails     int64
}

func snapshotFinals(c *Cluster, sm *sim.Simulator) finals {
	return finals{
		completed: c.Completed(),
		fired:     sm.Fired(),
		energy:    math.Float64bits(c.TotalEnergyJoules(sm.Now())),
		power:     math.Float64bits(c.TotalPower()),
		reli:      math.Float64bits(c.ReliabilityObj()),
		jobsInSys: c.JobsInSystem(),
		down:      c.DownServers(),
		fails:     c.Failures(),
	}
}

// buildWorkload schedules nJobs arrivals with deterministic durations on a
// round-robin server assignment, all strictly before the checkpoint instant.
func buildWorkload(sm *sim.Simulator, c *Cluster, nJobs int) {
	for i := 0; i < nJobs; i++ {
		j := mkJob(i, float64(i%8)+0.25*float64(i/8), 4+float64(i%5)*7, 0.15+0.05*float64(i%3))
		srv := i % c.M()
		jj, s := j, srv
		sm.Schedule(jj.Arrival, func() {
			// Remap through NextUp so crashed targets skip to a live server
			// (identity on fault-free runs); drop the job if all are down.
			if up := c.NextUp(s); up >= 0 {
				c.Submit(jj, up)
			}
		})
	}
}

// roundTrip checkpoints c at the current event boundary and restores the
// snapshot into a freshly built cluster, failing the test on any error.
func roundTrip(t *testing.T, c *Cluster, sm *sim.Simulator, mk func() (*Cluster, *sim.Simulator)) (*Cluster, *sim.Simulator) {
	t.Helper()
	w := checkpoint.NewWriter(0)
	c.State(w.Section("cluster").Codec())
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	seq, prioSeq, nFired := sm.Counters()

	c2, sm2 := mk()
	sm2.RestoreBegin(sm.Now(), seq, prioSeq, nFired)
	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, err := rd.Section("cluster")
	if err != nil {
		t.Fatalf("Section: %v", err)
	}
	if c2.State(d.Codec()); d.Err() != nil {
		t.Fatalf("State: %v", d.Err())
	}
	return c2, sm2
}

// TestClusterCheckpointRoundTripFaultFree checkpoints a loaded cluster
// mid-run (jobs queued and executing, servers mid-transition) and verifies
// the restored continuation is bitwise identical to the uninterrupted one:
// same completion stream, same energy/power/reliability accumulator bits.
func TestClusterCheckpointRoundTripFaultFree(t *testing.T) {
	cfg := DefaultConfig(4)
	mk := func() (*Cluster, *sim.Simulator) {
		sm := sim.New()
		c, err := New(cfg, sm, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return c, sm
	}

	c1, sm1 := mk()
	buildWorkload(sm1, c1, 24)
	sm1.Run(10) // all arrivals fired; completions and DPM timers pending

	if got := c1.JobsInSystem(); got == 0 {
		t.Fatal("workload drained before the checkpoint instant; test needs live jobs")
	}

	c2, sm2 := roundTrip(t, c1, sm1, mk)

	var dones1, dones2 []doneRec
	recordDones(c1, &dones1)
	recordDones(c2, &dones2)
	sm1.RunAll(1 << 20)
	sm2.RunAll(1 << 20)

	if f1, f2 := snapshotFinals(c1, sm1), snapshotFinals(c2, sm2); f1 != f2 {
		t.Fatalf("final aggregates diverge:\n  reference %+v\n  restored  %+v", f1, f2)
	}
	if len(dones1) != len(dones2) {
		t.Fatalf("completion counts diverge: %d vs %d", len(dones1), len(dones2))
	}
	for i := range dones1 {
		if dones1[i] != dones2[i] {
			t.Fatalf("completion %d diverges: %+v vs %+v", i, dones1[i], dones2[i])
		}
	}
}

// TestClusterCheckpointRoundTripWithFaults does the same with crash/repair
// clocks live: down servers, pending repair timers, eviction bookkeeping and
// the per-server RNG chains must all round-trip so the post-restore failure
// schedule continues exactly where the snapshot left off.
func TestClusterCheckpointRoundTripWithFaults(t *testing.T) {
	cfg := DefaultConfig(4)
	model, err := fault.NewExpCrash(7, 15, 4)
	if err != nil {
		t.Fatalf("NewExpCrash: %v", err)
	}
	var lost1, lost2 []int
	mk := func(lost *[]int) func() (*Cluster, *sim.Simulator) {
		return func() (*Cluster, *sim.Simulator) {
			sm := sim.New()
			c, err := New(cfg, sm, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			c.EnableFaults(model.ClockFor, fault.KindCrash, 1)
			c.OnInterrupt = func(t sim.Time, j *Job) { *lost = append(*lost, j.ID) }
			return c, sm
		}
	}

	c1, sm1 := mk(&lost1)()
	buildWorkload(sm1, c1, 24)
	sm1.Run(10)
	preLost := len(lost1)

	c2, sm2 := roundTrip(t, c1, sm1, mk(&lost2))

	var dones1, dones2 []doneRec
	recordDones(c1, &dones1)
	recordDones(c2, &dones2)
	sm1.Run(60)
	sm2.Run(60)

	if f1, f2 := snapshotFinals(c1, sm1), snapshotFinals(c2, sm2); f1 != f2 {
		t.Fatalf("final aggregates diverge:\n  reference %+v\n  restored  %+v", f1, f2)
	}
	if c1.Failures() == 0 {
		t.Fatal("no crashes in 60s at MTTF 15 over 4 servers; fault path untested")
	}
	post1 := lost1[preLost:]
	if len(post1) != len(lost2) {
		t.Fatalf("post-checkpoint interrupts diverge: %d vs %d", len(post1), len(lost2))
	}
	for i := range post1 {
		if post1[i] != lost2[i] {
			t.Fatalf("interrupt %d diverges: job %d vs %d", i, post1[i], lost2[i])
		}
	}
}

// TestClusterRestoreFaultFlagMismatch: a faults-enabled snapshot must not
// restore into a fault-free cluster (and vice versa) — that is a config
// mismatch, not a crash.
func TestClusterRestoreFaultFlagMismatch(t *testing.T) {
	cfg := DefaultConfig(2)
	sm := sim.New()
	c, err := New(cfg, sm, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := checkpoint.NewWriter(0)
	c.State(w.Section("cluster").Codec())
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	sm2 := sim.New()
	c2, err := New(cfg, sm2, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	model, _ := fault.NewExpCrash(1, 100, 10)
	c2.EnableFaults(model.ClockFor, fault.KindCrash, 1)
	seq, prioSeq, nFired := sm.Counters()
	sm2.RestoreBegin(sm.Now(), seq, prioSeq, nFired)

	rd, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	d, _ := rd.Section("cluster")
	c2.State(d.Codec())
	if err := d.Err(); !errors.Is(err, checkpoint.ErrConfigMismatch) {
		t.Fatalf("faults mismatch: got %v, want ErrConfigMismatch", err)
	}
}

// TestMergerStateRoundTrip checks the split the state walk makes between
// stored and rebuilt aggregates on a crash-model cluster stopped mid-run:
// the total-power accumulator, whose bits depend on its history, round-trips
// verbatim (here nudged off the fresh sum, within the drift tolerance), and
// every other aggregate is rebuilt to exactly what the uninterrupted
// cluster's incremental bookkeeping holds.
func TestMergerStateRoundTrip(t *testing.T) {
	cfg := DefaultConfig(6)
	model, err := fault.NewExpCrash(3, 60, 4)
	if err != nil {
		t.Fatalf("NewExpCrash: %v", err)
	}
	mk := func() (*Cluster, *sim.Simulator) {
		sm := sim.New()
		c, err := New(cfg, sm, func(int) DPMPolicy { return statelessDPM{timeout: 3} })
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		c.EnableFaults(model.ClockFor, fault.KindCrash, 1)
		c.OnInterrupt = func(sim.Time, *Job) {}
		return c, sm
	}
	c1, sm1 := mk()
	buildWorkload(sm1, c1, 36)
	sm1.Run(45)
	if c1.JobsInSystem() == 0 || c1.Completed() == 0 || c1.Failures() == 0 {
		t.Fatalf("need live jobs, completions and crashes at the checkpoint: %d in system, %d done, %d crashes",
			c1.JobsInSystem(), c1.Completed(), c1.Failures())
	}
	c1.totalPower = math.Nextafter(c1.totalPower, math.Inf(1))

	c2, _ := roundTrip(t, c1, sm1, mk)
	if math.Float64bits(c2.totalPower) != math.Float64bits(c1.totalPower) {
		t.Fatalf("total power %v, stored %v", c2.totalPower, c1.totalPower)
	}
	if c2.jobsInSystem != c1.jobsInSystem || c2.completed != c1.completed || c2.down != c1.down ||
		c2.draining != c1.draining || c2.fails != c1.fails || c2.jobs.max != c1.jobs.max {
		t.Fatalf("counters diverge: rebuilt %d/%d/%d/%d/%d/%d, incremental %d/%d/%d/%d/%d/%d",
			c2.jobsInSystem, c2.completed, c2.down, c2.draining, c2.fails, c2.jobs.max,
			c1.jobsInSystem, c1.completed, c1.down, c1.draining, c1.fails, c1.jobs.max)
	}
	for i := range c1.prevPower {
		if c2.prevPower[i] != c1.prevPower[i] || c2.prevJobs[i] != c1.prevJobs[i] {
			t.Fatalf("server %d caches diverge", i)
		}
	}
	for i := range c1.reliTerms {
		if math.Float64bits(c2.reliTerms[i]) != math.Float64bits(c1.reliTerms[i]) {
			t.Fatalf("reliability term %d diverges", i)
		}
	}
	if c2.reliHot[0] != c1.reliHot[0] ||
		math.Float64bits(c2.ReliabilityObj()) != math.Float64bits(c1.ReliabilityObj()) {
		t.Fatal("reliability objective diverges")
	}
	for i, n := range c1.jobs.buckets {
		if i < len(c2.jobs.buckets) && c2.jobs.buckets[i] != n || i >= len(c2.jobs.buckets) && n != 0 {
			t.Fatalf("jobs multiset bucket %d diverges", i)
		}
	}
	c2.InvariantCheck()
}
